"""Compiled kernel vs pure-Python smoothing: bit-identical by contract."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import needs_fast
from smoothmas import _kernels, core, smoothing
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
    sampled on the kernel any other way fails with AttributeError here. The
    stream twins (fold, uniform_at) are bound into core by use_backend, not
    reached through fast(), so the spy neither sees nor blocks them. sorts
    records the sort flag of every call."""

    def __init__(self):
        self.calls = 0
        self.sorts = []

    def sample_outputs(self, query, m, start_index, prefix, sort=False):
        self.calls += 1
        self.sorts.append(sort)
        return _kernels._fast.sample_outputs(query, m, start_index, prefix, sort)


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
    # decisions take their rows in stream order: estimate_variance sums in it
    assert kernel_spy.sorts == [False] * 3


def test_pure_decisions_sample_once_per_stage(monkeypatch, restore_backend):
    # the same per-stage batch shape as on the kernel: one probe batch, one
    # more when the probe buys extra samples
    calls = []
    sample = smoothing.sample_policy

    def counted(*args, **kwargs):
        calls.append(kwargs.get("start_index", 0))
        return sample(*args, **kwargs)

    monkeypatch.setattr(smoothing, "sample_policy", counted)
    _kernels.use_backend("pure")
    branch = SeedSpec(2024).branch(3, 1, Purpose.VERIFY)
    bought = set()
    for i, (policy, inp, cfg) in enumerate(_cases()):
        calls.clear()
        detail = smoothed_decision_detail(policy, inp, cfg, branch)
        bought.add(detail.extra_samples > 0)
        assert calls == [0, cfg.m1][: 1 + (detail.extra_samples > 0)], i
    assert bought == {False, True}


@needs_fast
def test_derived_kernel_constants_stay_out_of_identity(restore_backend):
    def make():
        return AgentPolicy(llm_mimic(0.05), halluc=HallucinationConfig(p_h=0.2))

    sampled, fresh = make(), make()
    _kernels.use_backend("fast")
    sample_policy(sampled, SAMPLE_INPUTS[(1, 2)], 0.05, 5, SeedSpec(3).branch(0, 0, Purpose.DECIDE))
    assert "_kernel_constants" in vars(sampled)
    assert "_kernel_constants" not in vars(fresh)
    assert sampled == fresh
    assert hash(sampled) == hash(fresh)
    assert repr(sampled) == repr(fresh)


@needs_fast
def test_replaced_policy_derives_fresh_kernel_constants(restore_backend):
    inp = SAMPLE_INPUTS[(1, 2)]
    branch = SeedSpec(8).branch(1, 2, Purpose.DECIDE)
    policy = AgentPolicy(mean_aggregation(0.5))
    _kernels.use_backend("fast")
    before = sample_policy(policy, inp, 0.05, 20, branch)
    replaced = dataclasses.replace(
        policy, halluc=HallucinationConfig(p_h=1.0, mode="fixed-target", target=(0.9,))
    )
    fast = sample_policy(replaced, inp, 0.05, 20, branch)
    _kernels.use_backend("pure")
    pure = sample_policy(replaced, inp, 0.05, 20, branch)
    assert fast == pure
    assert set(fast.samples) == {(0.9,)}
    assert fast != before


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


def _hex_columns(columns):
    # float.hex tells -0.0 from 0.0, which == does not
    return [[x.hex() for x in column] for column in columns]


def _sorted_hex_columns(samples):
    return _hex_columns(sorted(column) for column in zip(*samples))


@needs_fast
@pytest.mark.parametrize("halluc", sorted(SAMPLE_HALLUC))
@pytest.mark.parametrize("d,k", sorted(SAMPLE_INPUTS))
@pytest.mark.parametrize("start_index", [0, 7, core.MASK64])
def test_sample_policy_backends_agree(halluc, d, k, start_index, kernel_spy, restore_backend):
    # both sort modes run in one test: the columns are checked against the
    # rows that the unsorted call drew
    domain = UNIT_DOMAIN if d == 1 else DOM3
    inp = SAMPLE_INPUTS[(d, k)]
    branch = SeedSpec(31).branch(2, k, Purpose.CERTIFY)
    for kind in (mean_aggregation(0.3), llm_mimic(0.05, 0.6)):
        policy = AgentPolicy(kind, halluc=SAMPLE_HALLUC[halluc](d), domain=domain)
        for sigma in (0.0, 0.2):
            rows = None
            for sort in (False, True):
                calls = kernel_spy.calls
                _kernels.use_backend("pure")
                pure = sample_policy(
                    policy, inp, sigma, 40, branch, start_index=start_index, sort=sort
                )
                _kernels.use_backend("fast")
                fast = sample_policy(
                    policy, inp, sigma, 40, branch, start_index=start_index, sort=sort
                )
                assert kernel_spy.calls == calls + 1
                assert kernel_spy.sorts[-1] == sort
                assert fast == pure, (kind, sigma, sort)
                if not sort:
                    rows = fast.samples
                    assert fast.columns == ()
                    continue
                assert fast.samples == ()
                assert _hex_columns(fast.columns) == _hex_columns(pure.columns)
                assert _hex_columns(fast.columns) == _sorted_hex_columns(rows)


@needs_fast
def test_sorted_columns_keep_signed_zeros_in_stream_order(restore_backend):
    # sigma = 0 adds +0.0 or -0.0 to -0.0 by the sign of each Gaussian draw;
    # a stable sort keeps the two zeros, equal under <, in stream order
    policy = AgentPolicy(mean_aggregation(0.5))
    inp = PolicyInput((-0.0,), ())
    branch = SeedSpec(4).branch(0, 0, Purpose.CERTIFY)
    for mode in ("pure", "fast"):
        _kernels.use_backend(mode)
        rows = sample_policy(policy, inp, 0.0, 64, branch).samples
        assert {x.hex() for (x,) in rows} == {"0x0.0p+0", "-0x0.0p+0"}, mode
        columns = sample_policy(policy, inp, 0.0, 64, branch, sort=True).columns
        assert _hex_columns(columns) == [[x.hex() for (x,) in rows]], mode
        assert _hex_columns(columns) == _sorted_hex_columns(rows), mode


@needs_fast
def test_certificate_samples_once_and_sorted(kernel_spy, restore_backend):
    policy = AgentPolicy(llm_mimic(0.05), halluc=HallucinationConfig(p_h=0.2))
    inp = SAMPLE_INPUTS[(1, 2)]
    branch = SeedSpec(6).branch(0, 2, Purpose.CERTIFY)
    _kernels.use_backend("fast")
    cert = certify_decision(policy, inp, uniform_partition(UNIT_DOMAIN), 0.1, 500, 0.01, branch)
    assert kernel_spy.sorts == [True]
    assert cert.n_samples == 500


@needs_fast
@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("sort", [False, True])
def test_oversized_batch_raises_memory_error(d, sort):
    # 2**62 samples of dimension 4 overflow a naive 64-bit buffer size; run
    # in a child so that a regression crashes the child, not the suite
    probe = (
        "from smoothmas import _kernels\n"
        "from smoothmas.core import Purpose, SeedSpec, box_domain\n"
        "from smoothmas.policy import AgentPolicy, PolicyInput, mean_aggregation\n"
        "from smoothmas.smoothing import sample_policy\n"
        f"d = {d}\n"
        "policy = AgentPolicy(mean_aggregation(0.5), domain=box_domain((1.0,) * d))\n"
        "branch = SeedSpec(0).branch(0, 0, Purpose.CERTIFY)\n"
        "try:\n"
        "    sample_policy(policy, PolicyInput((0.5,) * d, ()), 0.1, 2**62, branch,\n"
        f"                  sort={sort})\n"
        "except MemoryError:\n"
        "    print('MemoryError')\n"
    )
    proc = _import_kernels("fast", probe)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout.strip() == "MemoryError"


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


# Words outside [0, 2^64) included: both sides reduce them mod 2^64.
BOUNDARY_WORDS = (
    0, 1, 1 << 63, core.MASK64, core._GAMMA, -1, -(1 << 63), 1 << 64, (1 << 64) + 5,
)
WORDS = st.integers(min_value=-(1 << 80), max_value=1 << 80)


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
@given(WORDS, WORDS)
def test_stream_twins_match_core(a, b):
    _assert_twins_match(a, b)


class _RaisingTwins:
    """Stands in for the kernel module; reaching a stream twin fails."""

    def fold(self, h, w):
        raise AssertionError("fold reached the kernel")

    def uniform_at(self, key, i):
        raise AssertionError("uniform_at reached the kernel")


def _draw():
    stream = SeedSpec(3).branch(1, 2, Purpose.DECIDE).stream(4)
    return stream.next_uniform(), stream.next_gaussian()


def test_pure_backend_keeps_stream_draws_off_the_kernel(monkeypatch, restore_backend):
    expected = _draw()
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_fast", _RaisingTwins())
        _kernels.use_backend("pure")
        assert (core._fold, core._uniform_at) == (core.fold, core.uniform_at)
        assert _draw() == expected
        _kernels.use_backend("fast")
        with pytest.raises(AssertionError, match="fold reached"):
            _draw()
        with pytest.raises(AssertionError, match="uniform_at reached"):
            core.Stream(5).next_uniform()


@needs_fast
def test_fast_backend_derives_streams_on_the_kernel(restore_backend):
    fast = _kernels._fast
    for mode in ("fast", "auto"):
        _kernels.use_backend(mode)
        assert (core._fold, core._uniform_at) == (fast.fold, fast.uniform_at)
    fast_draws = _draw()
    _kernels.use_backend("pure")
    assert (core._fold, core._uniform_at) == (core.fold, core.uniform_at)
    assert _draw() == fast_draws


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


def test_requesting_missing_fast_backend_raises(restore_backend, monkeypatch):
    before = (_kernels.active_backend(), _kernels.fast(), core._fold, core._uniform_at)
    monkeypatch.setattr(_kernels, "_fast", None)
    with pytest.raises(RuntimeError, match="not available"):
        _kernels.use_backend("fast")
    # a refused request leaves the selection as it was
    assert (_kernels.active_backend(), _kernels.fast(), core._fold, core._uniform_at) == before
    _kernels.use_backend("auto")
    assert _kernels.active_backend() == "pure"
    assert _kernels.fast() is None
    assert (core._fold, core._uniform_at) == (core.fold, core.uniform_at)


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
    probe = "from smoothmas import _kernels; print(_kernels.active_backend())"
    proc = _import_kernels(backend, probe)
    assert proc.returncode == 0, proc.stderr
    built = "pure" if _kernels._fast is None else "fast"
    assert proc.stdout.strip() == (built if backend == "auto" else "pure")
