"""Check that two revisions produce byte-identical results.

    python tools/identity.py REV_A REV_B

Each revision is unpacked with `git archive` into a temporary directory
(trees unpacked the same way, since a checkout's other files can move
timings, though not results), and each runs the fixed set of configs in
CONFIGS through the command line, `python -m xbarlstm.cli`, with
PYTHONPATH=<tree>/src.  Then every output file that holds results is
compared byte for byte: `metrics.csv` and `report.json` of each run and
the comparison tables of each `cost` run.  One line per file; the exit
status is 1 if any file differs or is missing on either side, else 0.

The set takes about 12 s per revision on two cores.  It is fixed here,
so every comparison runs the same configs.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# name -> (command, config text or None for the command's defaults)
CONFIGS = {
    "word_lm-sweep": ("sweep", """
[experiment]
task = word_lm
[train]
epochs = 3
[sweep]
weight_bits = 2, 4
adc_bits = 2, 4
"""),
    "char_lm-noisy": ("train", """
[experiment]
task = char_lm
[train]
weight_bits = 4
adc_bits = 4
dac_bits = 4
epochs = 2
[noise]
weight_noise_beta = 0.2
adc_noise = on
"""),
    # the large array without noise: several Adam blocks per step, the
    # ADC pass mask folded into backward, the last epoch's report as final
    "char_lm-qat": ("train", """
[experiment]
task = char_lm
[train]
weight_bits = 4
adc_bits = 4
dac_bits = 4
epochs = 2
"""),
    "har-noise-sweep": ("noise-sweep", """
[experiment]
task = har
[train]
epochs = 3
[sweep]
betas = 0, 0.2
adc_noise_grid = off, on
adc_bits = 2, 4
"""),
    "word_lm-range-override": ("train", """
[experiment]
task = word_lm
[train]
weight_bits = 3
adc_bits = 3
dac_bits = 3
adc_range_override = 2 2.5 3 3.5
"""),
    "word_lm-sgd": ("train", """
[experiment]
task = word_lm
[train]
optimizer = sgd
learning_rate = 0.5
epochs = 3
"""),
    "cost": ("cost", None),
    # ADC energy above its knee and ADC area above 6 bits, which the
    # defaults never reach
    "cost-off-default": ("cost", """
[hw]
rows = 128
cols = 256
num_adcs = 16
adc_bits = 12
parallel_arrays = 2
"""),
}
RESULT_FILES = ("metrics.csv", "report.json")
COST_FILES = ("comparison.txt", "comparison.csv")


def expected_files() -> list[str]:
    """Every compared file, as `<config>/<file>`."""
    return [f"{name}/{f}" for name, (command, _) in CONFIGS.items()
            for f in RESULT_FILES + (COST_FILES if command == "cost" else ())]


def unpack(rev: str, dest: Path):
    """The tree of `rev`, unpacked with `git archive` into `dest`."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_configs(tree: Path, out: Path):
    """Run every config of CONFIGS with `tree`'s source, its outputs in
    out/<name>; a failed run is reported on stderr and leaves its files
    missing."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for name, (command, text) in CONFIGS.items():
        argv = [sys.executable, "-m", "xbarlstm.cli", command, "--out", str(out / name)]
        if text is not None:
            config = out / f"{name}.ini"
            config.write_text(text.lstrip())
            argv += ["--config", str(config)]
        proc = subprocess.run(argv, env=env, cwd=out, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name} exited {proc.returncode} in {tree}: {proc.stderr.strip()}",
                  file=sys.stderr)


def compare(dir_a: Path, dir_b: Path, files: list[str]) -> list[tuple[str, str]]:
    """(status, file) for each file: 'identical', 'differs', or 'missing'
    when either side lacks it."""
    rows = []
    for f in files:
        a, b = dir_a / f, dir_b / f
        if not (a.is_file() and b.is_file()):
            rows.append(("missing", f))
        else:
            rows.append(("identical" if a.read_bytes() == b.read_bytes() else "differs", f))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/identity.py REV_A REV_B", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="xbarlstm-identity-") as tmp:
        outs = []
        for side, rev in zip("ab", argv):
            tree, out = Path(tmp) / side / "tree", Path(tmp) / side / "out"
            out.mkdir(parents=True)
            try:
                unpack(rev, tree)
            except subprocess.CalledProcessError as exc:
                print(f"cannot unpack {rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
                return 2
            run_configs(tree, out)
            outs.append(out)
        rows = compare(*outs, expected_files())
    for status, f in rows:
        print(f"{status:9s}  {f}")
    return 0 if all(status == "identical" for status, _ in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
