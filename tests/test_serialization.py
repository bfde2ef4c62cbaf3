"""Binary artifacts (WLQS, WLGS, WLMD) under damage: every truncation and
appended byte is rejected, a flipped bit loads or is rejected, and an
untouched artifact survives load-then-save byte for byte."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtlabel.core import InteractionTable, make_duration_bins, make_partition
from wtlabel.datagen import SyntheticConfig, generate
from wtlabel.errors import PipelineError
from wtlabel.labeling import (
    LabelConfig,
    build_grouped_summaries,
    label_all,
    load_grouped_summaries,
    save_grouped_summaries,
)
from wtlabel.learner import ModelArch, OptimizerConfig, TaskConfig, fit, load_model, save_model
from wtlabel.quantile import ExactSummary, SketchSummary, summary_from_bytes


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Each format's bytes, a loader from bytes, and a saver back to
    bytes, all built from a few hundred records."""
    d = tmp_path_factory.mktemp("artifacts")
    cfg = SyntheticConfig(n_users=20, n_videos=60, interactions_per_user=15, seed=3)
    table, _ = generate(cfg)
    rng = np.random.default_rng(3)
    exact = ExactSummary()
    exact.extend(rng.uniform(0, 100, 40))
    sketch = SketchSummary(0.005, capacity=16)
    sketch.extend(rng.uniform(0, 100, 150))
    for v in rng.uniform(0, 100, 7):
        sketch.insert(v)
    grouped = build_grouped_summaries(
        table, bins=make_duration_bins(table, 4, 5), kinds=("duration_bin", "video", "user")
    )
    # eps 0.45 is a capacity of 570: the global summary and the 600-record
    # bins compact, every video and user stays below capacity
    wide, _ = generate(SyntheticConfig(n_users=20, n_videos=60, interactions_per_user=60, seed=3))
    compacting = build_grouped_summaries(
        wide, bins=make_duration_bins(wide, 2, 5), kinds=("duration_bin", "video", "user"),
        mode="sketch", eps=0.45,
    )
    assert sum(s.count >= s.capacity for s in compacting.summaries.values()) == 3
    # video and user ids that need CSV quoting, are not ASCII, or are a
    # prefix of another id
    ids = ("a,b", 'say "hi"', "two\nlines", "naïve ü", "視頻", "v1", "v10")
    n, duration = 210, rng.uniform(5, 600, 210)
    awkward = build_grouped_summaries(
        InteractionTable([ids[i % 7] for i in range(n)], [ids[i // 7 % 7] for i in range(n)],
                         duration, rng.uniform(0, 300, n)),
        bins=make_duration_bins(duration, 3, 5), kinds=("duration_bin", "video", "user"),
    )
    labels = label_all(table, LabelConfig(partition=make_partition("equal_frequency", 6),
                                          bins_b=4, bins_min_size=5))
    model, _ = fit(
        table, dict(labels.columns),
        [TaskConfig("wpr_d", "squared_error"), TaskConfig("ev_d", "logistic"),
         TaskConfig("wpr", "ordinal_cumulative", name="ord")],
        ModelArch(2, 2, 3), OptimizerConfig(epochs=1, batch_size=64), bins_b=4, bins_min_size=5,
    )

    def through_file(load, save):
        path = str(d / "artifact.bin")

        def load_bytes(blob):
            with open(path, "wb") as fh:
                fh.write(blob)
            return load(path)

        def save_bytes(obj):
            save(obj, path)
            with open(path, "rb") as fh:
                return fh.read()

        return load_bytes, save_bytes

    wlqs = (summary_from_bytes, lambda s: s.to_bytes())
    wlgs = through_file(load_grouped_summaries, save_grouped_summaries)
    wlmd = through_file(load_model, save_model)
    return {
        "wlqs_exact": (wlqs[1](exact), *wlqs),
        "wlqs_sketch": (wlqs[1](sketch), *wlqs),
        "wlgs": (wlgs[1](grouped), *wlgs),
        "wlgs_sketch": (wlgs[1](compacting), *wlgs),
        "wlgs_keys": (wlgs[1](awkward), *wlgs),
        "wlmd": (wlmd[1](model), *wlmd),
    }


FORMATS = ("wlqs_exact", "wlqs_sketch", "wlgs", "wlgs_sketch", "wlgs_keys", "wlmd")


@pytest.mark.parametrize("fmt", FORMATS)
def test_load_then_save_is_byte_identical(artifacts, fmt):
    blob, load, save = artifacts[fmt]
    assert save(load(blob)) == blob


@settings(deadline=None, max_examples=300)
@given(fmt=st.sampled_from(FORMATS), data=st.data())
def test_damaged_artifact_loads_or_raises_pipeline_error(artifacts, fmt, data):
    blob, load, _ = artifacts[fmt]
    damage = data.draw(st.sampled_from(("truncate", "append", "flip")))
    if damage == "truncate":
        bad = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif damage == "append":
        bad = blob + data.draw(st.binary(min_size=1, max_size=16))
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        bad = bytes(flipped)
    try:
        load(bad)
    except PipelineError:
        return
    # a flipped bit may land in a value, which the format cannot tell
    # from a real one; lost or extra bytes never go unnoticed
    assert damage == "flip"
