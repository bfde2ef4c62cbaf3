"""Digest every artifact of a fixed set of wtlabel runs.

    python3 tools/artifact_digests.py OUT

Runs gen, label, train, eval and ablate with the src/ of the checkout
this file sits in, writing under OUT (which must not exist yet), then
prints each command's stdout with OUT replaced by a placeholder and one
"sha256  relative/path" line per file written. A change meant to keep
outputs byte-identical runs this at its parent and at itself, each
into a fresh OUT, and diffs the two printouts.

The runs, on the gen defaults (a) and on 2,000 users x 100 records over
20,000 videos (b):
  gen, and label exact and sketch with --summaries-out, on both sizes
  on (a): label --ablation-labels, --tie-mode shared --no-debias
    --ablation-labels, and --summaries-in the exact summaries
  on (a)'s --ablation-labels file: 2-epoch train of the default tasks
    with --trace and --print-config, and of four tasks on the ordinal,
    equal-width, playing-rate and weighted-logistic heads; eval --truth
    of the first on --split eval and all
  on (a): ablate --epochs 1
  gen alone at the edges of its id widths and shuffle, each into its own
    directory under OUT/edges: 1 user x 1 video; 11 users x 10 videos,
    10 x 100 and 11 x 101 (the last at --seed 3), each user's records a full
    permutation of the videos; --confound off --records 300 over 10
    users and 100 videos
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PLACEHOLDER = "<OUT>"


def runs(out: str) -> list[list[str]]:
    a, b = os.path.join(out, "a"), os.path.join(out, "b")
    cmds = [["gen", "--out", a],
            ["gen", "--out", b, "--users", "2000", "--videos", "20000", "--per-user", "100"]]
    for d in (a, b):
        data = os.path.join(d, "interactions.csv")
        cmds += [["label", "--input", data, "--output", os.path.join(d, f"{mode}.csv"),
                  "--summary", mode, "--summaries-out", os.path.join(d, f"{mode}.wlgs")]
                 for mode in ("exact", "sketch")]
    data, truth, abl = (os.path.join(a, n) for n in ("interactions.csv", "truth.csv", "abl.csv"))
    m1, m2 = os.path.join(a, "m1.bin"), os.path.join(a, "m2.bin")
    cmds += [
        ["label", "--input", data, "--output", abl, "--ablation-labels"],
        ["label", "--input", data, "--output", os.path.join(a, "shared.csv"),
         "--tie-mode", "shared", "--no-debias", "--ablation-labels"],
        ["label", "--input", data, "--output", os.path.join(a, "sumin.csv"),
         "--summaries-in", os.path.join(a, "exact.wlgs")],
        ["train", "--input", abl, "--model", m1, "--epochs", "2",
         "--trace", os.path.join(a, "trace.csv"), "--print-config"],
        ["train", "--input", abl, "--model", m2, "--epochs", "2", "--tasks",
         "wpr:ordinal_cumulative:0.1,ew_wpr:squared_error,playing_rate:squared_error,"
         "ev:weighted_logistic:0.05"],
        *(["eval", "--input", abl, "--model", m1, "--truth", truth, "--split", split,
           "--report", os.path.join(a, f"report_{split}.csv")] for split in ("eval", "all")),
        ["ablate", "--input", data, "--truth", truth, "--out", os.path.join(a, "ablate"),
         "--epochs", "1"],
    ]
    edges = {"1x1": ["--users", "1", "--videos", "1", "--per-user", "1"],
             "11x10": ["--users", "11", "--videos", "10", "--per-user", "10"],
             "10x100": ["--users", "10", "--videos", "100", "--per-user", "100"],
             "11x101": ["--users", "11", "--videos", "101", "--per-user", "101", "--seed", "3"],
             "off": ["--users", "10", "--videos", "100", "--confound", "off", "--records", "300"]}
    cmds += [["gen", "--out", os.path.join(out, "edges", name), *flags]
             for name, flags in edges.items()]
    return cmds


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/artifact_digests.py OUT", file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=SRC)
    for cmd in runs(out):
        done = subprocess.run([sys.executable, "-m", "wtlabel.cli", *cmd], env=env,
                              capture_output=True, text=True)
        print(f"$ wtlabel {' '.join(cmd)}".replace(out, PLACEHOLDER))
        print(done.stdout.replace(out, PLACEHOLDER), end="")
        if done.returncode:
            print(done.stderr.replace(out, PLACEHOLDER), end="", file=sys.stderr)
            return done.returncode
    for root, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {os.path.relpath(path, out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
