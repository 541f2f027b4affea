"""Peak memory of the staged commands at two dataset sizes.

Builds the benchmark's detect-dense dataset (``bench/generate.py``, read,
not edited) at seed 0 with 80 and with 320 videos, then runs segment
(rule_fallback) -> align -> parse (rule, lexicon) -> ground -> plm on it,
and ``run-all`` with the same settings. Each command runs under a small
launcher process of its own, which reports the command's peak resident size
from ``getrusage(RUSAGE_CHILDREN)``: a child's peak starts from the size of
the process it was forked from, so the launcher is kept small.

Exits 1 when the staged outputs differ from ``run-all``'s, or when ``align``,
``ground`` or ``plm`` peaks more than 10% higher at 320 videos than at 80:
each holds one chunk of loaded files at a time, so its peak should follow
the chunk, not the dataset. Prints every peak in MiB, and each checked
command's growth against the bound (``plm +9.4% of 10%``).

    python scripts/staged_peaks.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

from generate import generate  # noqa: E402

# Runs argv[1:] with its stdout dropped and prints the child's peak in KiB.
LAUNCHER = (
    "import resource, subprocess, sys\n"
    "code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    "sys.exit(code)\n"
)
VIDEOS = (80, 320)
BOUND = 0.10
CHECKED = ("align", "ground", "plm")
OUTPUTS = ("sentences.ndjson", "scene_graphs.ndjson", "negatives.ndjson")


def commands(data: Path, out: Path) -> dict:
    """The staged commands and ``run-all`` on ``data``, writing under ``out``."""
    d, o = str(data), str(out)
    return {
        "segment": ["segment", "--data-root", d, "--out", f"{o}/raw.ndjson",
                    "--tcs-mode", "rule_fallback", "--offline"],
        "align": ["align", "--data-root", d, "--sentences", f"{o}/raw.ndjson",
                  "--out", f"{o}/sentences.ndjson"],
        "parse": ["parse", "--sentences", f"{o}/sentences.ndjson",
                  "--out", f"{o}/triplets.ndjson", "--parser", "rule", "--mapping", "lexicon"],
        "ground": ["ground", "--data-root", d, "--sentences", f"{o}/sentences.ndjson",
                   "--triplets", f"{o}/triplets.ndjson", "--out", f"{o}/scene_graphs.ndjson"],
        "plm": ["plm", "--data-root", d, "--sentences", f"{o}/sentences.ndjson",
                "--graphs", f"{o}/scene_graphs.ndjson", "--out", f"{o}/negatives.ndjson"],
        "run-all": ["run-all", "--data-root", d, "--out-dir", f"{o}/run-all", "--offline",
                    "--tcs-mode", "rule_fallback", "--parser", "rule", "--mapping", "lexicon"],
    }


def peak_mib(args: list) -> float:
    """``capgraph args`` under the launcher: its own peak resident size."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "capgraph.cli", *args],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    if done.returncode:
        sys.exit(f"capgraph {args[0]} exited {done.returncode}")
    return int(done.stdout.split()[-1]) / 1024


def main() -> int:
    peaks = {}
    with tempfile.TemporaryDirectory(prefix="staged-peaks-") as work:
        for videos in VIDEOS:
            data, out = Path(work, f"{videos}", "data"), Path(work, f"{videos}", "out")
            generate("detect-dense", 0, data, videos=videos)
            out.mkdir()
            peaks[videos] = {name: peak_mib(cmd) for name, cmd in commands(data, out).items()}
            print(f"{videos} videos: " + ", ".join(
                f"{name} {mib:.1f}" for name, mib in peaks[videos].items()) + " MiB")
            for name in OUTPUTS:
                if (out / name).read_bytes() != (out / "run-all" / name).read_bytes():
                    print(f"{videos} videos: staged {name} differs from run-all's")
                    return 1
    low, high = (peaks[videos] for videos in VIDEOS)
    print(f"growth {VIDEOS[0]} -> {VIDEOS[1]} videos: " + ", ".join(
        f"{name} {high[name] / low[name] - 1:+.1%} of {BOUND:.0%}" for name in CHECKED))
    grown = [name for name in CHECKED if high[name] > low[name] * (1 + BOUND)]
    for name in grown:
        print(f"{name} peaks at {high[name]:.1f} MiB at {VIDEOS[1]} videos, more than "
              f"{BOUND:.0%} above its {low[name]:.1f} MiB at {VIDEOS[0]}")
    return 1 if grown else 0


if __name__ == "__main__":
    sys.exit(main())
