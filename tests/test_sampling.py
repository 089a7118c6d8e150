import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bellcheck.bell import (
    alpha_table,
    bell_value_gamma,
    branch_labels,
    branch_laws,
    normalized_bell_from_probabilities,
)
from bellcheck.circuit import embedded_pair_state
from bellcheck.measurement import ALICE, BOB, basis
from bellcheck.sampling import (
    DRAW_BLOCK,
    MAX_SHOTS,
    ShotPlan,
    draw_counts,
    estimate_distance,
    estimate_normalized_bell,
    plan_shots,
)
from bellcheck.tensor import apply_bilocal, max_entangled, random_real_orthogonal, rng_stream
from oracles import outcome_distribution, protocol_branches

SIGMA_Z = np.diag([1.0, -1.0])


def random_state(d, rng):
    z = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    return z / np.linalg.norm(z)


def exact_normalized_value(psi, d, m):
    return (bell_value_gamma(psi, d, m) + m) / (d * m)


def cell_law(psi, d, m):
    """Probability of each (branch, class) cell of a round: each table over its own sum."""
    laws = branch_laws(psi, d, m)
    return laws / laws.sum(axis=(-2, -1), keepdims=True)


def round_values(scores, counts):
    """The round values of a run, one per round, expanded from its cell counts."""
    return np.repeat(np.tile(scores, len(counts)), counts.ravel())


def count_mean(scores, counts):
    """Mean round value of a run and its standard error, from the cell counts alone."""
    per_class = counts.sum(axis=0)
    s = int(per_class.sum())
    mean = float(per_class @ scores) / s
    var = float(per_class @ (scores - mean) ** 2) / (s - 1)
    return mean, np.sqrt(var / s)


class TestPlanShots:
    def test_frozen_reference_budget(self):
        # floor(800 * ln 20) + 1
        plan = plan_shots(0.1, 0.05)
        assert plan.s == 2397

    def test_boundary_adjacent_small_budget(self):
        assert plan_shots(0.999, 0.5).s == 6

    def test_halving_epsilon_quadruples_shots(self):
        s1 = plan_shots(0.2, 0.05).s
        s2 = plan_shots(0.1, 0.05).s
        assert 4 * s1 - 3 <= s2 <= 4 * s1

    def test_strict_inequality(self):
        for eps, delta in [(0.1, 0.05), (0.5, 0.5), (0.999, 0.9)]:
            plan = plan_shots(eps, delta)
            assert plan.s > 8 * np.log(1 / delta) / eps**2

    def test_parameter_validation(self):
        for eps, delta in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)]:
            with pytest.raises(ValueError):
                plan_shots(eps, delta)
        with pytest.raises(ValueError):
            ShotPlan(s=0)
        assert ShotPlan(s=MAX_SHOTS).s == 2**63 - 1
        with pytest.raises(ValueError, match="got 9223372036854775808"):
            ShotPlan(s=MAX_SHOTS + 1)
        # numpy truncates a fractional multinomial size, so s = 2.5 would run 2 rounds
        for s in (2.5, 1.0, True, False, "3", None):
            with pytest.raises(ValueError, match=f"shot count must be an integer, got {s!r}"):
                ShotPlan(s=s)
        assert ShotPlan(s=np.int64(3)).s == 3
        for eps, delta in [(1e-10, 0.05), (1e-160, 0.05), (1e-200, 0.05), (0.5, 5e-324)]:
            with pytest.raises(ValueError, match="shot count"):
                plan_shots(eps, delta)


class TestSampleRound:
    def test_values_bounded_by_two(self):
        rng_state = rng_stream(131)
        for d in (2, 4):
            z = rng_state.standard_normal(d * d) + 1j * rng_state.standard_normal(d * d)
            psi = z / np.linalg.norm(z)
            counts = draw_counts(branch_laws(psi, d, 2), 132, 500)
            # counts land only in the 2m x d cells, whose scores lie in [-2, 2]
            assert counts.shape == (4, d) and counts.dtype == np.int64
            assert np.all(counts >= 0) and counts.sum() == 500
            assert np.all(np.abs(2.0 * alpha_table(d, 2)) <= 2.0)

    def test_unbiased_on_entangled_state(self):
        d, m = 4, 2
        psi = max_entangled(d)
        counts = draw_counts(branch_laws(psi, d, m), 133, 100_000)
        mean, _ = count_mean(2.0 * alpha_table(d, m), counts)
        assert abs(mean - 1.0) <= 0.01

    def test_unbiased_on_orthogonal_witness(self):
        psi = apply_bilocal(np.eye(2), SIGMA_Z, max_entangled(2))
        counts = draw_counts(branch_laws(psi, 2, 2), 134, 100_000)
        mean, _ = count_mean(2.0 * alpha_table(2, 2), counts)
        assert abs(mean) <= 0.01

    def test_mean_matches_probability_form(self):
        # grand mean over seeds approaches the exact normalized value
        rng = rng_stream(136)
        d, m = 4, 2
        u1 = random_real_orthogonal(d, rng)
        u2 = random_real_orthogonal(d, rng)
        psi = apply_bilocal(u1, u2, max_entangled(d))
        exact = normalized_bell_from_probabilities(branch_laws(psi, d, m), d, m)
        counts = draw_counts(branch_laws(psi, d, m), 137, 200_000)
        mean, se = count_mean(2.0 * alpha_table(d, m), counts)
        assert abs(mean - exact) <= 4 * se + 1e-6


class TestEstimateNormalizedBell:
    def test_deterministic_replay(self):
        psi = max_entangled(4)
        plan = plan_shots(0.2, 0.1)
        a = estimate_normalized_bell(psi, 4, 2, plan, seed=17)
        b = estimate_normalized_bell(psi, 4, 2, plan, seed=17)
        assert a == b

    def test_distinct_seeds_differ(self):
        psi = max_entangled(4)
        plan = ShotPlan(s=500)
        a = estimate_normalized_bell(psi, 4, 2, plan, seed=1)
        b = estimate_normalized_bell(psi, 4, 2, plan, seed=2)
        assert a.x != b.x

    def test_report_fields(self):
        psi = max_entangled(4)
        report = estimate_normalized_bell(psi, 4, 2, plan_shots(0.1, 0.05), seed=5)
        assert report.s == 2397
        assert sum(report.setting_tallies.values()) == report.s
        assert set(report.setting_tallies) == {"A1B1", "A2B1", "A2B2", "A3B2"}
        assert -2.0 <= report.x <= 2.0

    def test_x_is_unclamped_round_mean(self):
        psi = apply_bilocal(np.eye(2), SIGMA_Z, max_entangled(2))
        plan = ShotPlan(s=2000)
        report = estimate_normalized_bell(psi, 2, 2, plan, seed=7)
        counts = draw_counts(branch_laws(psi, 2, 2), 7, plan.s)
        values = round_values(2.0 * alpha_table(2, 2), counts)
        assert values.size == plan.s
        assert report.x == pytest.approx(float(values.mean()), rel=0, abs=1e-12)
        assert report.distance_estimate == pytest.approx(np.sqrt(1 - min(1, max(0, report.x))))

    def test_schedule_independence(self):
        # the counts of rounds [0, s) are one multinomial per dyadic block, block b
        # from stream b: [0, B), [B, 2B), [2B, 4B), then the 2B + 7 rounds of [4B, 8B)
        psi = random_state(4, rng_stream(139))
        m, s, seed = 2, 6 * DRAW_BLOCK + 7, 23
        scores = 2.0 * alpha_table(4, m)
        sizes = [DRAW_BLOCK, DRAW_BLOCK, 2 * DRAW_BLOCK, 2 * DRAW_BLOCK + 7]
        blocks = [rng_stream(seed, stream_id=b).multinomial(size, cell_law(psi, 4, m).ravel())
                  for b, size in enumerate(sizes)]
        counts = draw_counts(branch_laws(psi, 4, m), seed, s)
        assert np.array_equal(counts.ravel(), np.sum(blocks, axis=0))
        report = estimate_normalized_bell(psi, 4, m, ShotPlan(s=s), seed)
        assert report.x == float(counts.sum(axis=0) @ scores / s)
        assert report.x == pytest.approx(count_mean(scores, counts)[0], rel=0, abs=1e-12)

    def test_close_to_exact_on_entangled_state(self):
        report = estimate_normalized_bell(max_entangled(4), 4, 2, ShotPlan(s=10_000), seed=3)
        assert abs(report.x - 1.0) <= 0.05
        assert report.distance_estimate <= 0.25


class TestEstimateDistance:
    def test_equal_circuits_read_near_zero(self):
        rng = rng_stream(141)
        u = random_real_orthogonal(2, rng)
        report = estimate_distance(u @ u.T, 2, ShotPlan(s=10_000), seed=9)
        assert report.distance_estimate <= 0.1

    def test_planted_orthogonal_pair_reads_near_one(self):
        report = estimate_distance(SIGMA_Z, 2, ShotPlan(s=10_000), seed=10)  # W = I Z^T
        assert abs(report.distance_estimate - 1.0) <= 0.05

    def test_error_shrinks_with_shots(self):
        from bellcheck.distance import circuit_distance

        rng = rng_stream(142)
        errors = {100: [], 10_000: []}
        for pair in range(30):
            u1 = random_real_orthogonal(2, rng)
            u2 = random_real_orthogonal(2, rng)
            d_true = circuit_distance(u1 @ u2.T)
            for s in errors:
                report = estimate_distance(u1 @ u2.T, 2, ShotPlan(s=s), seed=1000 + pair)
                errors[s].append(report.distance_estimate - d_true)
        rms = {s: float(np.sqrt(np.mean(np.square(e)))) for s, e in errors.items()}
        assert rms[10_000] < rms[100]

    def test_dimension_mismatch(self):
        # a mismatched pair has no W = U1 U2^T; a W that is not square is refused
        with pytest.raises(ValueError, match="must be square"):
            estimate_distance(np.ones((2, 4)), 2, ShotPlan(s=10), seed=0)


class TestStacks:
    """A stack of pairs runs as its pairs would alone, bit for bit and seed for seed."""

    @pytest.fixture
    def w(self):
        pairs = random_real_orthogonal(4, rng_stream(143), (3, 4, 2))
        return pairs[..., 0, :, :] @ pairs[..., 1, :, :].mT

    def test_cell_law_equals_per_item(self, w):
        stack = cell_law(embedded_pair_state(w), 16, 3)
        assert stack.shape == (3, 4, 6, 16)
        for idx in np.ndindex(3, 4):
            single = cell_law(embedded_pair_state(w[idx]), 16, 3)
            assert stack[idx].tobytes() == single.tobytes()

    @pytest.mark.parametrize("s", [1_000, 3 * DRAW_BLOCK + 5])
    def test_estimate_equals_per_item(self, w, s):
        seeds = np.arange(12, dtype=np.int64).reshape(3, 4) * 7919
        plan = ShotPlan(s=s)
        stack = estimate_distance(w, 3, plan, seeds)
        assert stack.x.shape == stack.distance_estimate.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            single = estimate_distance(w[idx], 3, plan, int(seeds[idx]))
            assert type(single.x) is float and type(single.distance_estimate) is float
            assert np.array_equal(stack.x[idx], single.x)
            assert np.array_equal(stack.distance_estimate[idx], single.distance_estimate)
            for label, tally in single.setting_tallies.items():
                assert stack.setting_tallies[label][idx[0]][idx[1]] == tally

    def test_stack_needs_one_seed_per_state(self, w):
        with pytest.raises(ValueError):
            estimate_distance(w, 3, ShotPlan(s=10), 5)


class TestCoverage:
    def test_hoeffding_coverage_sample(self):
        # light version of the certificate check: 60 runs at the planned budget
        psi = max_entangled(4)
        plan = plan_shots(0.1, 0.05)
        exact = exact_normalized_value(psi, 4, 2)
        misses = sum(
            abs(estimate_normalized_bell(psi, 4, 2, plan, seed=s).x - exact) >= 0.1
            for s in range(60)
        )
        assert misses / 60 <= 0.06 + 0.05


class TestDrawTable:
    """The dyadic block draws of ``draw_counts``."""

    @pytest.mark.parametrize("k", [1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1])
    def test_prefix_stable(self, k):
        # a run's complete blocks are the first blocks of every longer run: past the
        # last block boundary, a run only adds counts, in every one of the 96 cells
        m, s, seed = 3, 200_000, 29
        laws = branch_laws(random_state(16, rng_stream(151)), 16, m)
        boundary = DRAW_BLOCK if k >= DRAW_BLOCK else 0
        shared = draw_counts(laws, seed, boundary)
        assert shared.sum() == boundary
        short = draw_counts(laws, seed, k)
        assert short.sum() == k
        for longer in (short, draw_counts(laws, seed, s)):
            assert np.all(longer - shared >= 0)
        if k == boundary:
            assert np.array_equal(short, shared)

    def test_ranges_and_branch_balance(self):
        m, s = 3, 120_000
        counts = draw_counts(branch_laws(max_entangled(4), 4, m), 31, s).sum(axis=1)
        assert counts.shape == (2 * m,) and np.all(counts > 0)
        expected = s / (2 * m)
        assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))

    @pytest.mark.parametrize("s", [DRAW_BLOCK, 5 * DRAW_BLOCK + 3])
    def test_block_counts_follow_the_cell_law(self, s):
        # chi-square goodness of fit of one run's counts against s times the cell law
        d, m = 4, 3
        psi = random_state(d, rng_stream(152))
        law = cell_law(psi, d, m).ravel()
        assert law.min() > 1e-3  # every expected count is far above 5
        counts = draw_counts(branch_laws(psi, d, m), 157, s).ravel()
        result = stats.chisquare(counts, s * law)
        assert result.pvalue > 1e-3


def class_law(psi, branch, d, m):
    """Exact class law from the d x d outcome grid, independently of the sampler."""
    outcomes = np.arange(d)
    classes = branch.score_class(outcomes[:, None], outcomes).ravel()
    probs = outcome_distribution(psi, *branch.pair, d, m).ravel()
    return np.bincount(classes, weights=probs, minlength=d)


def wrapped_eigenstate(d, m):
    """Outcome eigenstate of the wrapped pair (1, m): its class law is a point mass."""
    return np.kron(basis(d, m, 1, ALICE)[:, 1], basis(d, m, m, BOB)[:, 0])


class TestAliasTables:
    """The cell law that ``draw_counts`` draws from against the class laws it is built from."""

    @pytest.mark.parametrize("d,m", [(8, 2), (16, 3), (64, 5)])
    def test_point_mass_and_zero_classes(self, d, m):
        # a cell of probability zero never receives a round
        law = cell_law(wrapped_eigenstate(d, m), d, m)
        zero = law < 1e-20
        assert np.isclose(law[-1].max(), 1.0 / (2 * m))
        assert np.sum(zero[-1]) == d - 1
        counts = draw_counts(branch_laws(wrapped_eigenstate(d, m), d, m), 158, 3 * DRAW_BLOCK)
        assert counts.sum() == 3 * DRAW_BLOCK and not np.any(counts[zero])

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_labels_and_scores_match_the_branch_oracle(self, m):
        # the wrapped branch (1, m) keeps the label A{m+1}B{m}; X is printed to 12 digits
        d = 8
        labels, scores = branch_labels(m), 2.0 * alpha_table(d, m)
        branches = protocol_branches(d, m)
        assert labels == [b.label for b in branches]
        assert labels[-1] == f"A{m + 1}B{m}"
        for branch in branches:
            assert scores.dtype == branch.class_scores.dtype
            assert scores.tobytes() == branch.class_scores.tobytes()

    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    def test_each_branch_reproduces_its_class_law(self, d):
        m = 3
        rng = rng_stream(153, d)
        eigen = wrapped_eigenstate(d, m)
        branches = protocol_branches(d, m)
        for psi in (random_state(d, rng), max_entangled(d), eigen):
            law = cell_law(psi, d, m)
            assert abs(law.sum() - 1.0) < 1e-12
            for n, branch in enumerate(branches):
                got = 2 * m * law[n]
                assert np.max(np.abs(got - class_law(psi, branch, d, m))) < 1e-12
        wrapped_law = class_law(eigen, branches[-1], d, m)
        assert np.isclose(wrapped_law.max(), 1.0) and np.sum(wrapped_law < 1e-20) == d - 1

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    def test_expected_round_value_is_exact(self, d, m):
        # a round lands in cell (n, c) with probability cell_law[n, c] and scores 2*alpha[c]
        rng = rng_stream(156, 10 * d + m)
        for psi in (random_state(d, rng), max_entangled(d), wrapped_eigenstate(d, m)):
            expected = float(np.sum(cell_law(psi, d, m) @ (2.0 * alpha_table(d, m))))
            from_laws = normalized_bell_from_probabilities(branch_laws(psi, d, m), d, m)
            assert abs(expected - from_laws) < 1e-12
            assert abs(expected - exact_normalized_value(psi, d, m)) < 1e-12


@pytest.mark.parametrize("run", [
    lambda psi: bell_value_gamma(psi, 256, 2),
    lambda psi: draw_counts(branch_laws(psi, 256, 3), 5, 239_659),
], ids=["gamma", "sampler"])
def test_embedded_n4_peak_memory_below_one_dense_grid(run):
    # the 16^4-amplitude grid would take 1 MiB; the embedded pair never forms it
    rng = rng_stream(156)
    u1 = random_real_orthogonal(16, rng)
    u2 = random_real_orthogonal(16, rng)
    run(embedded_pair_state(u1 @ u2.T))  # warm the caches of the first call
    tracemalloc.start()
    try:
        run(embedded_pair_state(u1 @ u2.T))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 16**4


class TestInequivalentCoverage:
    def test_embedded_pair_at_d16(self):
        # criterion 8's check on an inequivalent embedded pair: the planned budget
        # misses by epsilon or more in at most delta of the runs
        rng = rng_stream(155)
        u1 = random_real_orthogonal(4, rng)
        u2 = random_real_orthogonal(4, rng)
        psi = embedded_pair_state(u1 @ u2.T)
        d, m = 16, 2
        exact = exact_normalized_value(psi, d, m)
        assert 0.05 < exact < 0.95
        plan = plan_shots(0.1, 0.05)
        xs = np.array([estimate_normalized_bell(psi, d, m, plan, seed=s).x for s in range(500)])
        assert float(np.mean(np.abs(xs - exact) >= 0.1)) <= 0.06
        se = float(xs.std(ddof=1) / np.sqrt(xs.size))
        assert abs(float(xs.mean()) - exact) <= 4 * se
