"""A gauge of the shared host's current speed, to scale the benchmark's times.

Other tenants of the host slow every program on it, by up to 1.8x, for
stretches of ten seconds to minutes.  A run of half a minute can thus fall
wholly in a slow stretch, and no statistic over that run removes it (see
README.md).  So the benchmark times a fixed kernel, the gauge, between every
two operations, and scales each operation's time by ``REFERENCE_S`` over the
gauge times around it: the end-to-end times read as on this host running at
its reference speed.

The gauge does widesense's kinds of work at three working-set sizes, each
for about a third of its time: many small NumPy calls on a 100x200 matrix, as
in the small Monte Carlo trials; the complex product of a 320x1600 real
matrix, the size of the ``acss_vs_cs`` baseline; and that of a 400x2500 one,
as in ``FourierDictionary.correlations`` at frame scale.  The host's load
slows each size by a different factor, and each workload leans on a
different size.  Its inputs are fixed, so its time moves with the host and
never with the program.  It runs in a child process pinned to the
benchmark's CPU, so that its arrays stay out of the benchmark's peak
resident set.

    python3 bench/hostspeed.py     # serve: one gauge per line read, "wall cpu" seconds
"""

import prepare  # pins the BLAS thread counts before NumPy loads

import subprocess
import sys
import time

# Seconds the gauge takes on the reference machine (README.md) when the host
# is in its fast state: of 1707 gauges in a row there, the fastest took 17 ms,
# the fastest tenth 19 ms or less, and the median 24 ms.  A scaled time is the
# raw time times REFERENCE_S / gauge time.
REFERENCE_S = 0.018

SMALL_CALLS = 500
MID_PRODUCTS = 1
LARGE_PRODUCTS = 1


def make_inputs():
    import numpy

    rng = numpy.random.default_rng(0)

    def residual(rows):
        return rng.standard_normal(rows) + 1j * rng.standard_normal(rows)

    return ((rng.standard_normal((100, 200)), rng.standard_normal(200)),
            (rng.standard_normal((320, 1600)), residual(320)),
            (rng.standard_normal((400, 2500)), residual(400)))


def gauge_once(inputs) -> tuple:
    """Run the kernel once; return its wall and CPU seconds."""
    import numpy

    (small, x), (mid, mid_residual), (large, large_residual) = inputs
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(SMALL_CALLS):
        r = small @ x
        float(numpy.linalg.norm(r))
        int(numpy.argmax(numpy.abs(small.T @ r)))
    for _ in range(MID_PRODUCTS):
        mid.astype(complex).conj().T @ mid_residual
    for _ in range(LARGE_PRODUCTS):
        large.astype(complex).conj().T @ large_residual
    return time.perf_counter() - wall, time.process_time() - cpu


def serve():
    inputs = make_inputs()
    gauge_once(inputs)   # warm-up
    for _line in sys.stdin:
        wall, cpu = gauge_once(inputs)
        print(f"{wall!r} {cpu!r}", flush=True)


class Gauge:
    """The gauge's child process; ``read()`` runs the kernel once there."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(prepare.BENCH / "hostspeed.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def read(self) -> tuple:
        """Wall and CPU seconds of one gauge."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"benchmark: the host-speed gauge exited with {self.proc.wait()}")
        wall, cpu = map(float, line.split())
        return wall, cpu

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
