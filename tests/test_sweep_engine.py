"""Equivalence suite for the vectorised resilience-sweep engine.

The engine's contract (ISSUE 1 / repro.core.sweep):

* ``cached`` — prefix-activation replay with the naive RNG streams —
  reproduces the naive per-point accuracies **bit-identically**;
* ``vectorized`` — NM stacking + common-random-number draws — reproduces
  them statistically (same Eq. 3-4 noise model, different draws);
* results are independent of chunking and worker partitioning;
* ``evaluate_accuracy`` under an empty registry is unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (SweepEngine, SweepTarget, group_wise_analysis,
                        layer_wise_analysis)
from repro.nn.hooks import (GROUP_ACTIVATIONS, GROUP_MAC, GROUP_SOFTMAX,
                            HookRegistry, INJECTABLE_GROUPS, use_registry)
from repro.train import evaluate_accuracy

NM_VALUES = (0.5, 0.05, 0.005, 0.0)


def _targets_for(model):
    """Group-wise targets plus a layer-wise refinement (Steps 2+4 shape)."""
    layers = model.layer_names[:3] + model.layer_names[-1:]
    return ([(group, None) for group in INJECTABLE_GROUPS]
            + [(GROUP_MAC, layer) for layer in dict.fromkeys(layers)]
            + [(GROUP_ACTIVATIONS, model.layer_names[0])])


def _accuracies(curves):
    return {key: [point.accuracy for point in curve.points]
            for key, curve in curves.items()}


def _sweep(model, dataset, strategy, targets, *, batch_size=40, seed=3):
    engine = SweepEngine(model, dataset, batch_size=batch_size,
                         strategy=strategy)
    return engine.sweep(targets, NM_VALUES, seed=seed)


@pytest.fixture(scope="module")
def capsnet_setup(trained_capsnet, mnist_splits):
    _, test_set = mnist_splits
    return trained_capsnet, test_set.subset(96)


@pytest.fixture(scope="module")
def deepcaps_setup(trained_deepcaps):
    model, test_set = trained_deepcaps
    return model, test_set.subset(64)


class TestCachedBitIdentical:
    """The cached-prefix strategy must be indistinguishable from naive."""

    def test_capsnet(self, capsnet_setup):
        model, test_set = capsnet_setup
        targets = _targets_for(model)
        naive = _accuracies(_sweep(model, test_set, "naive", targets))
        cached = _accuracies(_sweep(model, test_set, "cached", targets))
        assert naive == cached  # exact float equality, not approx

    def test_deepcaps(self, deepcaps_setup):
        model, test_set = deepcaps_setup
        targets = _targets_for(model)
        naive = _accuracies(_sweep(model, test_set, "naive", targets))
        cached = _accuracies(_sweep(model, test_set, "cached", targets))
        assert naive == cached

    def test_uneven_final_batch(self, capsnet_setup):
        model, test_set = capsnet_setup
        targets = [(GROUP_MAC, None), (GROUP_SOFTMAX, None)]
        naive = _accuracies(_sweep(model, test_set, "naive", targets,
                                   batch_size=36))  # 96 = 36 + 36 + 24
        cached = _accuracies(_sweep(model, test_set, "cached", targets,
                                    batch_size=36))
        assert naive == cached


class TestVectorizedEquivalence:
    """NM stacking draws different (equally-distributed) noise, so the
    accuracies must agree within noise-sampling resolution."""

    @staticmethod
    def _tolerance(nm: float) -> float:
        """Sampling-noise bound for CRN-vs-naive draws (deterministic for
        fixed seeds).  Large NM sits in the accuracy-collapse regime where
        a different noise realisation legitimately moves the measurement;
        small NM must agree tightly."""
        if nm >= 0.1:
            return 0.35
        if nm >= 0.005:
            return 0.15
        return 0.08

    @pytest.mark.parametrize("setup", ["capsnet_setup", "deepcaps_setup"])
    def test_accuracies_close(self, setup, request):
        model, test_set = request.getfixturevalue(setup)
        targets = _targets_for(model)
        naive = _accuracies(_sweep(model, test_set, "naive", targets))
        vect = _accuracies(_sweep(model, test_set, "vectorized", targets))
        assert naive.keys() == vect.keys()
        for key in naive:
            for nm, reference, measured in zip(NM_VALUES, naive[key],
                                               vect[key]):
                assert measured == pytest.approx(
                    reference, abs=self._tolerance(nm)), (key, nm)

    def test_zero_nm_point_is_exactly_baseline(self, capsnet_setup):
        model, test_set = capsnet_setup
        baseline = evaluate_accuracy(model, test_set, batch_size=40)
        curves = _sweep(model, test_set, "vectorized",
                        [(GROUP_MAC, None)])
        assert curves[GROUP_MAC].points[-1].nm == 0.0
        assert curves[GROUP_MAC].points[-1].accuracy == baseline

    def test_chunking_invariant(self, capsnet_setup, monkeypatch):
        """Stacked-chunk size must not change the measured curve."""
        model, test_set = capsnet_setup
        targets = [(GROUP_MAC, None)]
        monkeypatch.setenv("REPRO_SWEEP_STACK_BYTES", "1")
        per_point = _accuracies(_sweep(model, test_set, "vectorized",
                                       targets))
        monkeypatch.setenv("REPRO_SWEEP_STACK_BYTES", str(1 << 30))
        stacked = _accuracies(_sweep(model, test_set, "vectorized", targets))
        for key in per_point:
            for lone, wide in zip(per_point[key], stacked[key]):
                assert lone == pytest.approx(wide, abs=1e-9)


class TestEngineBehaviour:
    def test_analysis_entry_points_route_through_engine(self, capsnet_setup):
        model, test_set = capsnet_setup
        naive = group_wise_analysis(model, test_set, groups=[GROUP_MAC],
                                    nm_values=NM_VALUES, strategy="naive",
                                    batch_size=40, seed=3)
        cached = group_wise_analysis(model, test_set, groups=[GROUP_MAC],
                                     nm_values=NM_VALUES, strategy="cached",
                                     batch_size=40, seed=3)
        assert _accuracies(naive) == _accuracies(cached)
        layered = layer_wise_analysis(model, test_set, groups=[GROUP_MAC],
                                      layers=["Conv1"], nm_values=NM_VALUES,
                                      strategy="cached", batch_size=40,
                                      seed=3)
        assert set(layered) == {(GROUP_MAC, "Conv1")}

    def test_ambient_registry_falls_back_to_naive(self, capsnet_setup):
        """Active external registries would invalidate the prefix cache."""
        model, test_set = capsnet_setup
        targets = [(GROUP_SOFTMAX, None)]
        naive = _accuracies(_sweep(model, test_set, "naive", targets))
        with use_registry(HookRegistry()):
            ambient = _accuracies(_sweep(model, test_set, "vectorized",
                                         targets))
        assert naive == ambient

    def test_unstaged_model_uses_single_stage(self, capsnet_setup):
        """Models without forward_stages still sweep (whole-forward stage)."""
        from repro.nn import Module

        class Opaque(Module):
            """Hook-emitting model with no staged decomposition."""

            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                return self.inner(x)

        model, test_set = capsnet_setup
        opaque = Opaque(model)
        assert opaque.forward_stages() is None
        naive = _accuracies(_sweep(opaque, test_set, "naive",
                                   [(GROUP_MAC, None)]))
        cached = _accuracies(_sweep(opaque, test_set, "cached",
                                    [(GROUP_MAC, None)]))
        assert naive == cached

    def test_invalid_strategy_rejected(self, capsnet_setup):
        model, test_set = capsnet_setup
        with pytest.raises(ValueError, match="strategy"):
            SweepEngine(model, test_set, strategy="warp")

    def test_target_keys(self):
        assert SweepTarget("mac_outputs").key == "mac_outputs"
        assert SweepTarget("mac_outputs", "Conv1").key == \
            ("mac_outputs", "Conv1")


class TestStaleCacheProtection:
    """The cached clean trace must track the model's parameters.

    Regression for the classic stale-cache bug: mutating the model's
    weights between sweeps without calling ``invalidate()`` used to keep
    replaying activations of the *old* model.  The engine now fingerprints
    parameters/buffers and rebuilds the trace transparently.
    """

    def test_parameter_mutation_rebuilds_trace(self, capsnet_setup):
        model, test_set = capsnet_setup
        targets = [(GROUP_MAC, None)]
        engine = SweepEngine(model, test_set, batch_size=40,
                             strategy="cached")
        before = _accuracies(engine.sweep(targets, NM_VALUES, seed=3))
        param = model.conv1.weight
        original = param.data.copy()
        try:
            param.data[:] = 0.0  # in-place: invisible without fingerprinting
            naive = _accuracies(_sweep(model, test_set, "naive", targets))
            replayed = _accuracies(engine.sweep(targets, NM_VALUES, seed=3))
            # Still bit-identical to naive on the *mutated* model — a stale
            # trace would have reproduced `before` instead.
            assert replayed == naive
            assert replayed != before
        finally:
            param.data = original
        assert _accuracies(engine.sweep(targets, NM_VALUES, seed=3)) == before

    def test_unchanged_model_reuses_trace(self, capsnet_setup):
        model, test_set = capsnet_setup
        engine = SweepEngine(model, test_set, batch_size=40,
                             strategy="vectorized")
        engine.sweep([(GROUP_MAC, None)], NM_VALUES, seed=3)
        trace = engine._trace
        engine.sweep([(GROUP_SOFTMAX, None)], NM_VALUES, seed=3)
        assert engine._trace is trace  # fingerprint match -> no rebuild

    def test_manual_invalidate_still_drops_trace(self, capsnet_setup):
        model, test_set = capsnet_setup
        engine = SweepEngine(model, test_set, batch_size=40,
                             strategy="vectorized")
        engine.sweep([(GROUP_MAC, None)], NM_VALUES, seed=3)
        assert engine._trace is not None
        engine.invalidate()
        assert engine._trace is None


def test_evaluate_accuracy_empty_registry_regression(capsnet_setup):
    """An active-but-empty registry must not change the measurement."""
    model, test_set = capsnet_setup
    plain = evaluate_accuracy(model, test_set, batch_size=40)
    with use_registry(HookRegistry()):
        hooked = evaluate_accuracy(model, test_set, batch_size=40)
    assert plain == hooked


def test_curves_structure(capsnet_setup):
    model, test_set = capsnet_setup
    curves = _sweep(model, test_set, "vectorized", [(GROUP_MAC, "Conv1")])
    curve = curves[(GROUP_MAC, "Conv1")]
    assert [point.nm for point in curve.points] == list(NM_VALUES)
    assert curve.target == f"{GROUP_MAC}@Conv1"
    for point in curve.points:
        assert point.accuracy_drop == pytest.approx(
            point.accuracy - curve.baseline_accuracy)
