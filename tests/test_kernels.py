"""Compiled kernel vs pure-Python smoothing: bit-identical by contract."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothmas import _kernels, core
from smoothmas.core import Domain, InvalidArgumentError, Purpose, SeedSpec, UNIT_DOMAIN
from smoothmas.policy import (
    AgentPolicy,
    HallucinationConfig,
    PolicyInput,
    llm_mimic,
    mean_aggregation,
)
from smoothmas.certify import certify_decision, uniform_partition
from smoothmas.smoothing import SmoothingConfig, sample_policy, smoothed_decision_detail

# With SMOOTHMAS_REQUIRE_FAST=1 these tests run even when the kernel is
# missing, and then fail instead of skipping.
needs_fast = pytest.mark.skipif(
    _kernels._fast is None and os.environ.get("SMOOTHMAS_REQUIRE_FAST") != "1",
    reason="compiled kernel not available in this build",
)


@pytest.fixture
def restore_backend():
    yield
    _kernels.use_backend("auto")


DOM3 = Domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

HALLUC_CASES = {
    1: [
        None,
        HallucinationConfig(p_h=0.3, mode="uniform-random"),
        HallucinationConfig(p_h=0.4, mode="fixed-target", target=(0.1,)),
        HallucinationConfig(p_h=0.5, mode="large-jump", magnitude=0.4),
        HallucinationConfig(p_h=1.0, mode="uniform-random"),
    ],
    3: [
        None,
        HallucinationConfig(p_h=0.3, mode="uniform-random"),
        HallucinationConfig(p_h=0.4, mode="fixed-target", target=(0.1, 0.9, 0.5)),
        HallucinationConfig(p_h=0.5, mode="large-jump", magnitude=0.4),
    ],
}

CONFIGS = [
    SmoothingConfig(sigma=0.05, m1=5, m_max=20, trim_frac=0.1),
    SmoothingConfig(sigma=0.1, m1=3, m_max=0, trim_frac=0.0),
    SmoothingConfig(sigma=0.02, m1=8, m_max=12, trim_frac=0.4),
    SmoothingConfig(sigma=0.0, m1=4, m_max=10, trim_frac=0.1),
]


def _cases():
    for d, domain in ((1, UNIT_DOMAIN), (3, DOM3)):
        if d == 1:
            inp = PolicyInput((0.4,), ((1, (0.6,)), (2, (0.2,))))
        else:
            inp = PolicyInput(
                (0.4, 0.5, 0.6), ((1, (0.6, 0.1, 0.9)), (2, (0.2, 0.8, 0.3)))
            )
        for kind in (mean_aggregation(0.5), mean_aggregation(0.2), llm_mimic(0.05, 0.6)):
            for halluc in HALLUC_CASES[d]:
                for cfg in CONFIGS:
                    yield AgentPolicy(kind, halluc=halluc, domain=domain), inp, cfg


class _KernelSpy:
    """Stands in for the kernel module and counts sample_outputs calls.

    sample_outputs is the kernel's only sampling entry, so a decision that
    reached the kernel any other way fails with AttributeError here."""

    def __init__(self):
        self.calls = 0

    def sample_outputs(self, *args):
        self.calls += 1
        return _kernels._fast.sample_outputs(*args)


@pytest.fixture
def kernel_spy(monkeypatch):
    spy = _KernelSpy()
    selected = _kernels.fast
    monkeypatch.setattr(_kernels, "fast", lambda: None if selected() is None else spy)
    return spy


@needs_fast
def test_fast_and_pure_decisions_are_bit_identical(kernel_spy, restore_backend):
    branch = SeedSpec(2024).branch(3, 1, Purpose.VERIFY)
    mismatches = []
    for i, (policy, inp, cfg) in enumerate(_cases()):
        _kernels.use_backend("fast")
        calls = kernel_spy.calls
        fast = smoothed_decision_detail(policy, inp, cfg, branch)
        # one batch for the probe, one more when it buys extra samples
        assert kernel_spy.calls == calls + 1 + (fast.extra_samples > 0), i
        _kernels.use_backend("pure")
        pure = smoothed_decision_detail(policy, inp, cfg, branch)
        if fast != pure:
            mismatches.append((i, policy.kind.tag, policy.halluc, cfg, fast, pure))
    assert not mismatches, mismatches[:3]


@needs_fast
def test_decisions_sample_through_the_kernel(kernel_spy, restore_backend):
    inp = PolicyInput((0.4,), ((1, (0.6,)), (2, (0.2,))))
    branch = SeedSpec(12).branch(1, 0, Purpose.DECIDE)
    _kernels.use_backend("fast")
    quiet = smoothed_decision_detail(
        AgentPolicy(mean_aggregation(0.5)), inp, SmoothingConfig(sigma=0.0, m1=5), branch
    )
    assert (quiet.probe_variance, quiet.extra_samples) == (0.0, 0)
    assert kernel_spy.calls == 1
    noisy = smoothed_decision_detail(
        AgentPolicy(llm_mimic(0.05)), inp, SmoothingConfig(sigma=0.05, m1=5), branch
    )
    assert noisy.extra_samples > 0
    assert kernel_spy.calls == 3


@needs_fast
def test_parity_holds_across_seeds_and_branches(restore_backend):
    policy = AgentPolicy(
        llm_mimic(0.05),
        halluc=HallucinationConfig(p_h=0.2, mode="uniform-random"),
    )
    inp = PolicyInput((0.3,), ((1, (0.7,)),))
    cfg = SmoothingConfig(sigma=0.05, m1=5, m_max=20, trim_frac=0.1)
    for seed in range(20):
        branch = SeedSpec(seed).branch(seed % 7, seed % 3, Purpose.DECIDE)
        _kernels.use_backend("fast")
        fast = smoothed_decision_detail(policy, inp, cfg, branch)
        _kernels.use_backend("pure")
        pure = smoothed_decision_detail(policy, inp, cfg, branch)
        assert fast == pure, f"seed {seed}"


@needs_fast
def test_explicit_domain_bypasses_kernel_with_same_result(restore_backend):
    # passing the domain explicitly forces the generic path; the answer the
    # kernel gives for the same derivation path must match it bit for bit
    policy = AgentPolicy(mean_aggregation(0.5))
    inp = PolicyInput((0.4,), ((1, (0.6,)),))
    cfg = SmoothingConfig(sigma=0.05, m1=5, m_max=20, trim_frac=0.1)
    branch = SeedSpec(9).branch(0, 0, Purpose.VERIFY)
    _kernels.use_backend("fast")
    via_kernel = smoothed_decision_detail(policy, inp, cfg, branch)
    forced_pure = smoothed_decision_detail(policy, inp, cfg, branch, domain=UNIT_DOMAIN)
    assert via_kernel == forced_pure


@needs_fast
def test_both_backends_reject_dimension_mismatch_identically(restore_backend):
    policy = AgentPolicy(mean_aggregation(0.5), domain=DOM3)
    inp = PolicyInput((0.4,), ((1, (0.6,)),))
    cfg = SmoothingConfig(sigma=0.05, m1=5)
    branch = SeedSpec(0).branch(0, 0, Purpose.VERIFY)
    entries = (
        lambda: smoothed_decision_detail(policy, inp, cfg, branch),
        lambda: sample_policy(policy, inp, cfg.sigma, 5, branch),
    )
    for entry in entries:
        messages = []
        for mode in ("fast", "pure"):
            _kernels.use_backend(mode)
            with pytest.raises(InvalidArgumentError) as err:
                entry()
            messages.append(str(err.value))
        assert messages[0] == messages[1]


SAMPLE_HALLUC = {
    "none": lambda d: None,
    "p_h=0": lambda d: HallucinationConfig(p_h=0.0, mode="large-jump"),
    "uniform-random": lambda d: HallucinationConfig(p_h=0.4, mode="uniform-random"),
    "fixed-target": lambda d: HallucinationConfig(
        p_h=0.4, mode="fixed-target", target=(0.1, 0.9, 0.5)[:d]
    ),
    "large-jump": lambda d: HallucinationConfig(p_h=0.5, mode="large-jump", magnitude=0.4),
}
SAMPLE_INPUTS = {
    (1, 2): PolicyInput((0.4,), ((1, (0.6,)), (2, (0.2,)))),
    (1, 0): PolicyInput((0.95,), ()),
    (3, 2): PolicyInput((0.4, 0.5, 0.6), ((1, (0.6, 0.1, 0.9)), (2, (0.2, 0.8, 0.3)))),
    (3, 0): PolicyInput((0.05, 0.5, 0.95), ()),
}


@needs_fast
@pytest.mark.parametrize("halluc", sorted(SAMPLE_HALLUC))
@pytest.mark.parametrize("d,k", sorted(SAMPLE_INPUTS))
@pytest.mark.parametrize("start_index", [0, 7, core.MASK64])
def test_sample_policy_backends_agree(halluc, d, k, start_index, kernel_spy, restore_backend):
    domain = UNIT_DOMAIN if d == 1 else DOM3
    inp = SAMPLE_INPUTS[(d, k)]
    branch = SeedSpec(31).branch(2, k, Purpose.CERTIFY)
    for kind in (mean_aggregation(0.3), llm_mimic(0.05, 0.6)):
        policy = AgentPolicy(kind, halluc=SAMPLE_HALLUC[halluc](d), domain=domain)
        for sigma in (0.0, 0.2):
            calls = kernel_spy.calls
            _kernels.use_backend("pure")
            pure = sample_policy(policy, inp, sigma, 40, branch, start_index=start_index)
            _kernels.use_backend("fast")
            fast = sample_policy(policy, inp, sigma, 40, branch, start_index=start_index)
            assert kernel_spy.calls == calls + 1
            assert fast == pure, (kind, sigma)


@needs_fast
def test_explicit_domain_bypasses_kernel_for_samples(kernel_spy, restore_backend):
    policy = AgentPolicy(llm_mimic(0.05), halluc=HallucinationConfig(p_h=0.3))
    inp = SAMPLE_INPUTS[(1, 2)]
    branch = SeedSpec(5).branch(0, 1, Purpose.CERTIFY)
    _kernels.use_backend("fast")
    forced_pure = sample_policy(policy, inp, 0.1, 30, branch, domain=UNIT_DOMAIN)
    assert kernel_spy.calls == 0
    via_kernel = sample_policy(policy, inp, 0.1, 30, branch)
    assert kernel_spy.calls == 1
    assert via_kernel == forced_pure


@needs_fast
def test_certificates_on_boundaries_match_across_backends(restore_backend):
    # sigma = 0.6 clamps many samples to exactly 0.0 and 1.0, the partition's
    # end boundaries; both backends must give the same certificate
    part = uniform_partition(UNIT_DOMAIN, 4)
    cases = [
        (AgentPolicy(mean_aggregation(1.0)), PolicyInput((0.0,), ())),
        (AgentPolicy(mean_aggregation(0.5)), PolicyInput((1.0,), ((1, (0.75,)),))),
        (AgentPolicy(llm_mimic(0.1), halluc=HallucinationConfig(p_h=0.2)),
         PolicyInput((0.5,), ((3, (0.25,)),))),
    ]
    for i, (policy, inp) in enumerate(cases):
        branch = SeedSpec(8).branch(0, i, Purpose.CERTIFY)
        _kernels.use_backend("fast")
        samples = set(sample_policy(policy, inp, 0.6, 500, branch).samples)
        assert {(0.0,), (1.0,)} <= samples, i
        certs = []
        for mode in ("fast", "pure"):
            _kernels.use_backend(mode)
            certs.append(certify_decision(policy, inp, part, 0.6, 500, 0.01, branch))
        assert certs[0] == certs[1], i


BOUNDARY_WORDS = (0, 1, 1 << 63, core.MASK64, core._GAMMA)
U64 = st.integers(min_value=0, max_value=core.MASK64)


def _assert_twins_match(a, b):
    fast = _kernels._fast
    assert fast is not None, "compiled kernel not available in this build"
    assert fast.mix64(a) == core.mix64(a)
    assert fast.fold(a, b) == core.fold(a, b)
    assert fast.word_at(a, b) == core.word_at(a, b)
    assert fast.uniform_at(a, b) == core.uniform_at(a, b)


@needs_fast
def test_stream_twins_match_core_on_boundary_words():
    for a in BOUNDARY_WORDS:
        for b in BOUNDARY_WORDS:
            _assert_twins_match(a, b)


@needs_fast
@given(U64, U64)
def test_stream_twins_match_core(a, b):
    _assert_twins_match(a, b)


def test_invalid_backend_name_rejected():
    with pytest.raises(ValueError, match="auto.*fast.*pure"):
        _kernels.use_backend("gpu")


def test_active_backend_reports_selection(restore_backend):
    _kernels.use_backend("pure")
    assert _kernels.active_backend() == "pure"
    assert _kernels.fast() is None
    _kernels.use_backend("auto")
    assert _kernels.active_backend() in ("fast", "pure")


@needs_fast
def test_fast_backend_selectable_when_built(restore_backend):
    _kernels.use_backend("fast")
    assert _kernels.active_backend() == "fast"
    assert _kernels.fast() is not None


def test_requesting_missing_fast_backend_raises(monkeypatch, restore_backend):
    monkeypatch.setattr(_kernels, "_fast", None)
    with pytest.raises(RuntimeError, match="not available"):
        _kernels.use_backend("fast")
    assert _kernels.active_backend() == "pure"


def _import_kernels(backend, probe):
    env = dict(os.environ, SMOOTHMAS_BACKEND=backend, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)


@pytest.mark.parametrize(
    "backend, hide_kernel, error",
    [("pur", False, "ValueError"), ("FAST", False, "ValueError"), ("fast", True, "RuntimeError")],
)
def test_backend_variable_is_checked_at_import(backend, hide_kernel, error):
    # a None entry in sys.modules makes `from . import _fast` fail as in a
    # build without the kernel
    hide = "sys.modules['smoothmas._kernels._fast'] = None; " if hide_kernel else ""
    proc = _import_kernels(backend, f"import sys; {hide}import smoothmas._kernels")
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith(error), last
    for name in ("'auto'", "'fast'", "'pure'"):
        assert name in last, last


@pytest.mark.parametrize("backend", ["auto", "pure"])
def test_backend_variable_selects_mode_at_import(backend):
    proc = _import_kernels(backend, "from smoothmas import _kernels; print(_kernels._mode)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == backend
