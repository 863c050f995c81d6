"""One benchmark op in a fresh process: run, detect or replay.

Usage: python3 op.py OP RUN_DIR CONFIG SEED MODE RESULT

OP is run | detect | replay, MODE is plain | spans | count. The op imports
checkinsim from the checkout's ``src``, reads the scenario config, then times
its single public call and writes a JSON result (monotonic start and end,
the CLI's exit code and stdout, the host-speed probe times, and spans or
counts when traced). Everything before the timed call is the op's set-up.

The host this benchmark was built on changes speed by up to 2x within
seconds and over minutes, and checkinsim's timings move with it. So while
the call runs, a timer interrupts it every TICK_S seconds to time a small
fixed slice of benchmark-owned pure-Python work (the probe). The benchmark
subtracts the probe time from the call's wall time and divides the rest by
how much slower than its reference speed the probe ran, so the figures
follow checkinsim, not the host.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import signal
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TICK_S = 0.025
PROBE_POINTS = 600


def probe() -> float:
    """Time one fixed slice of pure-Python work; it never touches checkinsim.

    It allocates no container but one dict, so running it inside the op
    barely moves the op's garbage-collector schedule.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(PROBE_POINTS):
        lat = math.radians((i * 37 % 1800) / 10.0 - 90.0)
        lon = math.radians((i * 91 % 3600) / 10.0 - 180.0)
        h = math.sin(lat / 2.0) ** 2 + math.cos(lat) * math.sin(lon / 2.0) ** 2
        total += 2.0 * math.asin(min(1.0, math.sqrt(h)))
        key = i * 7919 % 613
        counts[key] = counts.get(key, 0) + 1
    if not (total > 0.0 and len(counts) == PROBE_POINTS):
        raise AssertionError("probe computed nothing")
    return time.perf_counter() - start


class Ticker:
    """Times the probe every TICK_S seconds of wall time while the call runs,
    and once more after it if the call was shorter than one tick. Traced ops
    only take that last sample, so the probe never lands inside a span."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: list[float] = []
        self.in_call_s = 0.0

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())
        self.in_call_s += self.samples[-1]

    def __enter__(self) -> "Ticker":
        if self.enabled:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append(probe())


def _import_checkinsim():
    sys.path.insert(0, str(SRC))
    import checkinsim
    import checkinsim.cli
    import checkinsim.harness

    if not Path(checkinsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"checkinsim imported from {checkinsim.__file__}, not from {SRC}")
    return checkinsim


def main(argv: list[str]) -> int:
    op, run_dir, config_path, seed, mode, result_path = argv
    checkinsim = _import_checkinsim()
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    tracer = counts = None
    if mode == "spans":
        table = spans.RUN_SPANS if op == "run" else spans.CLI_SPANS
        tracer = spans.install_spans(checkinsim, table + spans.ANALYTICS_SPANS)
    elif mode == "count":
        counts = spans.install_haversine_counters(checkinsim)

    harness, cli = checkinsim.harness, checkinsim.cli
    stdout = io.StringIO()
    code = 0
    if op == "run":
        with Ticker(mode == "plain") as ticker:
            start = time.monotonic()
            harness.run_scenario(harness.ScenarioConfig.from_dict(config), run_dir, int(seed))
            end = time.monotonic()
    else:
        if op == "detect":
            args = ["detect", "--in", run_dir, "--out", str(Path(run_dir) / "detect_report.csv")]
        else:
            args = ["verify-replay", "--in", run_dir]
        with contextlib.redirect_stdout(stdout), Ticker(mode == "plain") as ticker:
            start = time.monotonic()
            code = cli.main(args)
            end = time.monotonic()

    result = {"start": start, "end": end, "probes": ticker.samples, "probe_in_call_s": ticker.in_call_s,
              "cli_code": code, "cli_stdout": stdout.getvalue()}
    if tracer is not None:
        result["trace"] = tracer.export()
    if counts is not None:
        result["haversine_calls"] = counts
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
