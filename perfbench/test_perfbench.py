"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402
from metareweight.data import load_idx, locate_mnist  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("idx"))
    gen.write_idx(out, 7)
    return out


def test_generator_is_deterministic_per_seed():
    a, b, c = gen.generate(5), gen.generate(5), gen.generate(6)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], c[0])
    assert [x.shape for x in a] == [(60000, 784), (60000,), (10000, 784), (10000,)]
    assert all(x.dtype == np.uint8 for x in a)


def test_written_files_are_found_and_parse(idx_dir):
    paths = locate_mnist(idx_dir)
    assert paths is not None
    ds = load_idx(paths["test_images"], paths["test_labels"])
    assert len(ds) == 10000 and set(np.unique(ds.labels)) == set(range(10))


@pytest.fixture(scope="module")
def noise_uniform(idx_dir, tmp_path_factory):
    w = workload.Workload("noise", 0, idx_dir, str(tmp_path_factory.mktemp("noise")))
    w.hooks.install()
    try:
        return w.train_call("uniform", 0)
    finally:
        w.hooks.uninstall()


def test_uniform_beats_chance_on_noise(noise_uniform):
    """Train and test share class structure: the test set is learnable."""
    assert noise_uniform["summary"]["mean_test_error"] < 0.5  # chance is 0.9


def test_output_checks_pass_then_catch_a_bad_weight(noise_uniform):
    assert workload.check_call(noise_uniform, with_hyperval=True) is None
    path = os.path.join(noise_uniform["out"], "weights_seed0.csv")
    with open(path) as f:
        lines = f.readlines()
    step, weight, flipped = lines[1].strip().split(",")
    lines[1] = f"{step},{float(weight) * 2},{flipped}\n"
    with open(path, "w") as f:
        f.writelines(lines)
    assert "sums to neither 1 nor 0" in workload.check_call(noise_uniform, with_hyperval=True)


def test_span_self_times_add_up():
    # root 0..10 holds a 1..4 (which holds 2..3) and 5..9
    s = [[0, "r", -1, 0.0, 10.0, None], [1, "a", 0, 1.0, 4.0, None],
         [2, "b", 1, 2.0, 3.0, None], [3, "c", 0, 5.0, 9.0, None]]
    assert spans.self_times(s).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_traced_run_self_times_add_up(idx_dir, tmp_path):
    w = workload.Workload("imbalance", 0, idx_dir, str(tmp_path))
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        w.train_call("meta_reweight", 0)
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s[2] == -1]
    self_s = spans.self_times(tracer.spans)
    assert (self_s >= 0).all()
    assert self_s.sum() == pytest.approx(sum(s[4] - s[3] for s in roots), rel=1e-9)
    names = {s[1] for s in tracer.spans}
    assert {"experiment.run_experiment", "trainer.train", "nn.forward", "data.load_idx"} <= names


def test_metric_names_and_sets_match_the_spec():
    allowed = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(allowed.fullmatch(n) for n in names)
    assert len(names) == len(set(names))

    fake = {"setup_s": 1.0, "run_s": 2.0, "steps_per_s": {"meta_reweight": 1.0, "uniform": 2.0},
            "test_error": {"meta_reweight": 0.1, "uniform": 0.2}, "failed": 0, "attempted": 3,
            "passes_per_step": {"meta_reweight": 220.0, "uniform": 200.0}, "artifact_bytes": 1,
            "violating_steps": 0}
    e2e = workload.end_to_end_metrics(fake, 100.0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    layers = workload.per_layer_metrics(fake, fake, spans.layer_metrics([]))
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}


def test_descent_call_is_checked_and_traced(idx_dir, tmp_path):
    w = workload.Workload("descent", 0, idx_dir, str(tmp_path))
    tracer = spans.Tracer("test")
    tracer.install()
    w.hooks.install()  # the step counter over the span wrappers, as in a traced run
    try:
        record, = w.descent_pass(3, 10, 1)
    finally:
        w.hooks.uninstall()
        tracer.uninstall()
    assert record["errors"] == [] and record["attempted"] == 10
    assert record["failed"] == record["violating_steps"] == len(record["violations"])
    steps, seconds = record["timed"]["meta_reweight"]
    layers = spans.layer_metrics(tracer.spans)
    assert steps == layers["theory.steps_executed"] == 10 * layers["theory.trials"] > 0
    assert layers["nn.dot_with_each.calls"] == steps
    assert layers["theory.objective.calls"] > steps
    assert layers["data.load_idx.calls"] == 2 and layers["data.prepare.calls"] == 3
    assert layers["trainer.evaluate.calls"] == 0
    assert 0.0 < record["test_error"]["uniform"] < 0.5
