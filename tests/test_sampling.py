import numpy as np
import pytest

from bellcheck.bell import (
    bell_value_gamma,
    branch_laws,
    normalized_bell_from_probabilities,
    protocol_branches,
)
from bellcheck.circuit import embedded_pair_state
from bellcheck.measurement import ALICE, BOB, basis, outcome_distribution
from bellcheck.sampling import (
    DRAW_BLOCK,
    RoundSampler,
    ShotPlan,
    _alias_table,
    draw_table,
    estimate_distance,
    estimate_normalized_bell,
    plan_shots,
)
from bellcheck.tensor import RngStream, apply_bilocal, max_entangled, random_real_orthogonal

SIGMA_Z = np.diag([1.0, -1.0])


def random_state(d, rng):
    z = rng.gen.standard_normal(d * d) + 1j * rng.gen.standard_normal(d * d)
    return z / np.linalg.norm(z)


def exact_normalized_value(psi, d, m):
    return (bell_value_gamma(psi, d, m) + m) / (d * m)


class TestPlanShots:
    def test_frozen_reference_budget(self):
        # floor(800 * ln 20) + 1
        plan = plan_shots(0.1, 0.05)
        assert plan.s == 2397
        assert plan.epsilon == 0.1 and plan.delta == 0.05

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


class TestSampleRound:
    def test_values_bounded_by_two(self):
        rng_state = RngStream(131)
        for d in (2, 4):
            z = rng_state.gen.standard_normal(d * d) + 1j * rng_state.gen.standard_normal(d * d)
            psi = z / np.linalg.norm(z)
            sampler = RoundSampler(psi, d, 2)
            values = sampler.evaluate(*draw_table(132, 500, 2))
            assert np.all(np.abs(values) <= 2.0)

    def test_unbiased_on_entangled_state(self):
        d, m = 4, 2
        psi = max_entangled(d)
        sampler = RoundSampler(psi, d, m)
        branch, u = draw_table(133, 100_000, m)
        mean = float(sampler.evaluate(branch, u).mean())
        assert abs(mean - 1.0) <= 0.01

    def test_unbiased_on_orthogonal_witness(self):
        psi = apply_bilocal(np.eye(2), SIGMA_Z, max_entangled(2))
        sampler = RoundSampler(psi, 2, 2)
        branch, u = draw_table(134, 100_000, 2)
        mean = float(sampler.evaluate(branch, u).mean())
        assert abs(mean) <= 0.01

    def test_mean_matches_probability_form(self):
        # grand mean over seeds approaches the exact normalized value
        rng = RngStream(136)
        d, m = 4, 2
        u1 = random_real_orthogonal(d, rng)
        u2 = random_real_orthogonal(d, rng)
        psi = apply_bilocal(u1, u2, max_entangled(d))
        exact = normalized_bell_from_probabilities(branch_laws(psi, d, m), d, m)
        sampler = RoundSampler(psi, d, m)
        branch, u = draw_table(137, 200_000, m)
        values = sampler.evaluate(branch, u)
        se = float(values.std(ddof=1) / np.sqrt(values.size))
        assert abs(float(values.mean()) - exact) <= 4 * se + 1e-6


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
        assert report.d == 4 and report.m == 2
        assert report.epsilon == 0.1 and report.delta == 0.05
        assert report.seed == 5
        assert sum(report.setting_tallies.values()) == report.s
        assert set(report.setting_tallies) == {"A1B1", "A2B1", "A2B2", "A3B2"}
        assert -2.0 <= report.x <= 2.0

    def test_x_is_unclamped_round_mean(self):
        psi = apply_bilocal(np.eye(2), SIGMA_Z, max_entangled(2))
        plan = ShotPlan(s=2000)
        report = estimate_normalized_bell(psi, 2, 2, plan, seed=7)
        sampler = RoundSampler(psi, 2, 2)
        branch, u = draw_table(7, plan.s, 2)
        assert report.x == float(sampler.evaluate(branch, u).mean())
        assert report.distance_estimate == pytest.approx(np.sqrt(1 - min(1, max(0, report.x))))

    def test_schedule_independence(self):
        # round j depends only on (seed, j): chunked evaluation must agree bitwise
        psi = max_entangled(4)
        m, s, seed = 2, 5000, 23
        sampler = RoundSampler(psi, 4, m)
        branch, u = draw_table(seed, s, m)
        full = sampler.evaluate(branch, u)
        chunks = [sampler.evaluate(branch[lo:hi], u[lo:hi])
                  for lo, hi in [(0, 1234), (1234, 1235), (1235, 4000), (4000, s)]]
        assert np.array_equal(np.concatenate(chunks), full)
        report = estimate_normalized_bell(psi, 4, m, ShotPlan(s=s), seed)
        assert report.x == float(full.mean())

    def test_close_to_exact_on_entangled_state(self):
        report = estimate_normalized_bell(max_entangled(4), 4, 2, ShotPlan(s=10_000), seed=3)
        assert abs(report.x - 1.0) <= 0.05
        assert report.distance_estimate <= 0.25


class TestEstimateDistance:
    def test_equal_circuits_read_near_zero(self):
        rng = RngStream(141)
        u = random_real_orthogonal(2, rng)
        report = estimate_distance(u, u, 2, ShotPlan(s=10_000), seed=9)
        assert report.distance_estimate <= 0.1
        assert report.d == 4

    def test_planted_orthogonal_pair_reads_near_one(self):
        report = estimate_distance(np.eye(2), SIGMA_Z, 2, ShotPlan(s=10_000), seed=10)
        assert abs(report.distance_estimate - 1.0) <= 0.05

    def test_error_shrinks_with_shots(self):
        from bellcheck.distance import circuit_distance

        rng = RngStream(142)
        errors = {100: [], 10_000: []}
        for pair in range(30):
            u1 = random_real_orthogonal(2, rng)
            u2 = random_real_orthogonal(2, rng)
            d_true = circuit_distance(u1, u2)
            for s in errors:
                report = estimate_distance(u1, u2, 2, ShotPlan(s=s), seed=1000 + pair)
                errors[s].append(report.distance_estimate - d_true)
        rms = {s: float(np.sqrt(np.mean(np.square(e)))) for s, e in errors.items()}
        assert rms[10_000] < rms[100]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            estimate_distance(np.eye(2), np.eye(4), 2, ShotPlan(s=10), seed=0)


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
    @pytest.mark.parametrize("k", [1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1])
    def test_prefix_stable(self, k):
        # row j depends only on (seed, j): a shorter table is a prefix of a longer one
        m, s, seed = 3, 200_000, 29
        full = draw_table(seed, s, m)
        short = draw_table(seed, k, m)
        assert len(full) == len(short) == 2
        for col in range(2):
            assert np.array_equal(full[col][:k], short[col])

    def test_ranges_and_branch_balance(self):
        m, s = 3, 120_000
        branch, u = draw_table(31, s, m)
        assert set(np.unique(branch)) == set(range(2 * m))
        assert np.all((u >= 0.0) & (u < 1.0))
        counts = np.bincount(branch, minlength=2 * m)
        expected = s / (2 * m)
        assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))


def alias_class_probs(prob, alias, d):
    """Class law of one alias table: (prob[c] + sum over alias[j] = c of (1 - prob[j])) / d."""
    return (prob + np.bincount(alias, weights=1.0 - prob, minlength=d)) / d


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
    def test_point_mass_and_zero_classes(self):
        for probs in (np.eye(8)[3], np.array([0.5, 0.0, 0.25, 0.0, 0.25, 0.0]), np.full(5, 0.2)):
            prob, alias = _alias_table(probs)
            assert np.all((prob >= 0.0) & (prob <= 1.0))
            assert np.max(np.abs(alias_class_probs(prob, alias, probs.size) - probs)) < 1e-12
            # a class of probability zero is never kept and never an alias
            zero = probs == 0.0
            assert np.all(prob[zero] == 0.0)
            assert not np.any(zero[alias[prob < 1.0]])

    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    def test_each_branch_reproduces_its_class_law(self, d):
        m = 3
        rng = RngStream(153, d)
        eigen = wrapped_eigenstate(d, m)
        branches = protocol_branches(d, m)
        for psi in (random_state(d, rng), max_entangled(d), eigen):
            sampler = RoundSampler(psi, d, m)
            for n, branch in enumerate(branches):
                cells = slice(n * d, (n + 1) * d)
                got = alias_class_probs(sampler._prob[cells], sampler._alias[cells], d)
                assert np.max(np.abs(got - class_law(psi, branch, d, m))) < 1e-12
        wrapped_law = class_law(eigen, branches[-1], d, m)
        assert np.isclose(wrapped_law.max(), 1.0) and np.sum(wrapped_law < 1e-20) == d - 1

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    def test_expected_round_value_is_exact(self, d, m):
        # a round picks each of the 2m * d cells with probability 1/(2m d), then keeps
        # the column's class with probability prob[cell], else takes its alias
        rng = RngStream(156, 10 * d + m)
        for psi in (random_state(d, rng), max_entangled(d), wrapped_eigenstate(d, m)):
            sampler = RoundSampler(psi, d, m)
            cols = np.tile(np.arange(d), 2 * m)
            prob, scores = sampler._prob, sampler._scores
            expected = float(np.mean(prob * scores[cols] + (1.0 - prob) * scores[sampler._alias]))
            from_laws = normalized_bell_from_probabilities(branch_laws(psi, d, m), d, m)
            assert abs(expected - from_laws) < 1e-12
            assert abs(expected - exact_normalized_value(psi, d, m)) < 1e-12

    def test_evaluate_reads_column_then_coin(self):
        # u = (c + coin) / d keeps class c exactly when coin < prob[c]
        d, m = 4, 2
        psi = random_state(d, RngStream(154))
        sampler = RoundSampler(psi, d, m)
        for n in range(2 * m):
            for c in range(d):
                cell = n * d + c
                for coin in (0.0, 0.999999):
                    u = np.array([(c + coin) / d])
                    want = c if coin < sampler._prob[cell] else sampler._alias[cell]
                    got = sampler.evaluate(np.array([n]), u)
                    assert got[0] == sampler._scores[want]


class TestInequivalentCoverage:
    def test_embedded_pair_at_d16(self):
        # criterion 8's check on an inequivalent embedded pair: the planned budget
        # misses by epsilon or more in at most delta of the runs
        rng = RngStream(155)
        u1 = random_real_orthogonal(4, rng)
        u2 = random_real_orthogonal(4, rng)
        psi = embedded_pair_state(u1, u2)
        d, m = 16, 2
        exact = exact_normalized_value(psi, d, m)
        assert 0.05 < exact < 0.95
        plan = plan_shots(0.1, 0.05)
        xs = np.array([estimate_normalized_bell(psi, d, m, plan, seed=s).x for s in range(500)])
        assert float(np.mean(np.abs(xs - exact) >= 0.1)) <= 0.06
        se = float(xs.std(ddof=1) / np.sqrt(xs.size))
        assert abs(float(xs.mean()) - exact) <= 4 * se
