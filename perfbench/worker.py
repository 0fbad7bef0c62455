"""One round of one workload in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <traced: 0|1>

run.py starts one of these per round, so every round pays the cold caches a
``subdecay`` command pays.  The last line of standard output is the round's
record as JSON: stage timings, operations attempted and failed, check
problems, peak resident memory and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Collects what the workload functions report during one round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stages: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb: float | None = None

    def op(self, stage: str, fn, *args, **kwargs):
        """Time one call; an exception counts it failed and returns None."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.stages.setdefault(stage, []).append(time.perf_counter() - t0)
        return result

    def check(self, problems: list[str]):
        self.problems.extend(problems)

    def quarantine(self, label: str, fn):
        """Run an operation kept for a known fault, outside every metric.

        ``fn`` returns None when the fault shows, or the problems found on
        a result that came back; an exception also counts as the fault.
        Memory is sampled before the first one, so mending the fault cannot
        read as a rise in peak memory.
        """
        if self.peak_rss_mb is None:
            self.peak_rss_mb = peak_rss_mb()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            problems = fn()
        except Exception as exc:
            print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            problems = None
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
        if problems is None:
            self.failed += 1
        else:
            self.check(problems)


def main(argv: list[str]) -> int:
    workload, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
    import subdecay
    from subdecay import cli, decay, frac_ode, spectral, subdiff_fd

    if not Path(subdecay.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported subdecay from {subdecay.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer, install, layer_metrics

    tracer = None
    if traced:
        tracer = install(Tracer(), {"cli": cli, "decay": decay, "frac_ode": frac_ode,
                                    "spectral": spectral, "subdiff_fd": subdiff_fd})
    rec = Recorder(tracer)
    workloads.WORKLOADS[workload](rec, workloads.Inputs.from_seed(seed))
    if rec.peak_rss_mb is None:
        rec.peak_rss_mb = peak_rss_mb()
    record = {
        "stages": rec.stages,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "problems": rec.problems,
        "peak_rss_mb": rec.peak_rss_mb,
        "layers": layer_metrics(tracer) if tracer else None,
        "absent": tracer.absent if tracer else [],
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
