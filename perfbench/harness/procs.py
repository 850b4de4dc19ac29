"""Child processes: wall time, CPU time and peak resident memory.

A program run to completion is started through ``perfbench_spawn``,
which records the program's own ``ru_maxrss``.  Started straight from
Python, the program would inherit the harness's peak as the floor of its
own (Linux keeps ``ru_maxrss`` across exec).  For ``campaign-launch``
the figure is the peak of the single largest process among the launcher
and the workers it waited for, not their sum.  Output goes to files
rather than pipes, so nothing but ``wait4`` ever reaps a child.
"""

import os
import signal
import subprocess
import sys
import threading
import time


class ProgramError(RuntimeError):
    pass


class Run:
    """Outcome of one program run."""

    def __init__(self, args, returncode, wall_s, peak_rss_mb, stdout, stderr):
        self.args = args
        self.returncode = returncode
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.stdout = stdout
        self.stderr = stderr


def reap(proc):
    """Blocks until ``proc`` exits and records its exit code."""
    _, status, _ = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)


def peak_rss_mb(pid):
    """Peak resident memory of a running process so far (VmHWM), in MB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ProgramError("no VmHWM for process %d" % pid)


def cpu_time_s(pid):
    """CPU time (user + system) a running process has used so far, in
    seconds, to the nanosecond.  The clock id is Linux's encoding of
    clock_getcpuclockid(pid): a process-wide CPUCLOCK_SCHED clock."""
    return time.clock_gettime((~pid << 3) | 2)


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(spawn, args, log_dir, name, cwd=None, check=True, timeout=170.0):
    """Runs a program to completion through the ``spawn`` wrapper, timed
    from spawn to exit.  Its stdout and stderr are kept in
    ``log_dir/name.{out,err}``."""
    out_path = os.path.join(log_dir, name + ".out")
    err_path = os.path.join(log_dir, name + ".err")
    rss_path = os.path.join(log_dir, name + ".maxrss")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        # A session of its own, so a timeout or an abort can stop the
        # program's workers too.
        proc = subprocess.Popen([spawn, rss_path] + args, cwd=cwd,
                                stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        watchdog = threading.Timer(timeout, kill_group, (proc,))
        watchdog.start()
        try:
            reap(proc)
            wall = time.perf_counter() - t0
        except BaseException:
            if proc.returncode is None:
                kill_group(proc)
                reap(proc)
            raise
        finally:
            watchdog.cancel()
    with open(out_path) as f:
        stdout = f.read()
    with open(err_path) as f:
        stderr = f.read()
    rss = None
    if os.path.exists(rss_path):
        with open(rss_path) as f:
            rss = int(f.read()) / 1024.0  # ru_maxrss is in KiB on Linux
    result = Run(args, proc.returncode, wall, rss, stdout, stderr)
    if check and proc.returncode != 0:
        sys.stderr.write(stderr[-4000:])
        raise ProgramError("exit %d: %s" % (proc.returncode, " ".join(args)))
    return result
