"""The benchmark's per-layer spans see every bound a CLI command makes.

`bench/spans.py` traces by swapping module attributes.  A refactor that
binds a traced name early (at import time) or renames it would silently
zero the benchmark's per-layer counts; these tests fail instead.
"""

import math
import pathlib
import sys

import numpy as np

from eigenbounds import heatflow
from eigenbounds.cli import main

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from bench import spans  # noqa: E402


def test_traced_names_exist():
    missing = [f"{m.__name__}.{a}" for m, a, _, _ in spans.TARGETS if not hasattr(m, a)]
    assert missing == []


def test_cli_bounds_are_traced(capsys):
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["bound", "kahler-neumann", "--D", "1"]) == 0
        assert main(["scan", "--param", "D", "--range", "1:1.5:0.5", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["bounds.bound.calls"] == 3
    assert metrics["sturm_liouville.solve_shooting.calls"] == 3


def test_sharp_bound_layers(capsys):
    # one limit fit over six truncated shooting solves
    tracer = spans.Tracer()
    tracer.install()
    try:
        argv = ["bound", "kahler-neumann", "--m", "2", "--k1", "1", "--D", "1.5707963267948966"]
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["sturm_liouville.eigen_limit.calls"] == 1
    assert metrics["sturm_liouville.solve_shooting.calls"] == 6


def test_regular_bound_layer_counters(capsys):
    # the per-layer work counters the benchmark reads: the FD side runs its
    # Green's-function iteration, so no eigh_tridiagonal pencil; two weight
    # tables for the shooting mesh and three weight calls per FD grid
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["bound", "kahler-neumann", "--m", "2", "--k1", "0.25", "--D", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["sturm_liouville.eigh_tridiagonal.calls"] == 0
    assert metrics["sturm_liouville.eigh_tridiagonal.rows"] == 0
    assert metrics["coefficients.weight.calls"] == 8


def test_full_interval_check_traces_no_pencil(capsys):
    # the full-interval Neumann solver of `verify lemma32` runs the
    # Green's-function iteration, so the traced
    # sturm_liouville.eigh_tridiagonal sees no call
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["verify", "lemma32"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert spans.layer_metrics(tracer.spans)["sturm_liouville.eigh_tridiagonal.calls"] == 0


def test_envelope_check_span_counts_every_pair():
    # the offset sweep still covers all n (n - 1) / 2 pairs of every record
    flow = heatflow.heatflow_1d(None, heatflow.LINEAR, 0.5, np.tanh, 0.5, n=128, records=400)
    tracer = spans.Tracer()
    tracer.install()
    try:
        heatflow.modulus_envelope_check(
            flow, lambda s, t: math.exp(-math.pi**2 * t) * np.sin(math.pi * s)
        )
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["heatflow.modulus_envelope_check.calls"] == 1
    assert metrics["heatflow.modulus_envelope_check.pair_evals"] == 8128 * 401 == 3_259_328
