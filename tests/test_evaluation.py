import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import stdtr

from uplrec import evaluation
from uplrec.evaluation import (
    CohortMasks,
    MetricReport,
    compute_cohorts,
    evaluate,
    one_tailed_t_test,
    t_sf,
    validation_dcg,
)
from uplrec.factor_model import FactorModel, init_model

from conftest import make_implicit, one_user_metrics

LOG2_3 = math.log2(3.0)


def assert_t_tail_close(got, want, df):
    """``t_sf``'s stated accuracy against scipy's Student-t tail: relative
    1e-11 for df <= 1e4 and 1e-9 for df <= 1e6, absolute 1e-300 where
    scipy's tail is below 1e-300, and nan where scipy gives nan.  The
    relative bounds are the worst errors measured, rounded up to a power of
    ten: 1.03e-12 on ``test_t_sf_matches_stdtr``'s grid for df <= 1e4, and
    1.03e-10 for df <= 1e6, at df = 1e6 and t = 1.91 on a 0.01 step of t
    (9.0e-11 on the grid).  The error grows about in proportion to df."""
    got, want, df = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64)
                                          for x in (got, want, df)))
    rel = np.where(df <= 1e4, 1e-11, 1e-9)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    bound = np.where(want >= 1e-300, rel * want, 1e-300)
    assert np.all(np.abs(got - want)[~np.isnan(want)] <= bound[~np.isnan(want)])


# ---------------------------------------------------------------------------
# Reference: the per-user loops the batched kernel replaced, kept verbatim
# apart from taking each user's scores from ``score(u, items)`` (``items``
# None meaning the whole catalog).


def _ref_ranked_relevance(scores, relevance):
    scores = np.asarray(scores, dtype=np.float64)
    relevance = np.asarray(relevance)
    if scores.ndim != 1 or scores.shape != relevance.shape:
        raise ValueError("scores/relevance must be 1-D with equal shapes")
    if len(scores) == 0:
        raise ValueError("empty item list")
    order = np.lexsort((np.arange(len(scores)), -scores))
    return relevance[order]


def _ref_rank_metrics(scores, relevance, k):
    ranked = _ref_ranked_relevance(scores, relevance)
    total_rel = int(ranked.sum())
    if total_rel == 0:
        raise ValueError("no relevant item in the candidate list")
    top = ranked[:k].astype(np.float64)
    ranks = np.arange(1, len(top) + 1)
    dcg = float(np.sum(top / np.log2(ranks + 1)))
    recall = float(top.sum() / total_rel)
    precision_at = np.cumsum(top) / ranks
    ap = float(np.sum(top * precision_at) / total_rel)
    return dcg, recall, ap


def _ref_user_metrics(scores, relevance, ks):
    ranked = _ref_ranked_relevance(scores, relevance)
    total_rel = ranked.sum()
    out = {}
    for k in ks:
        top = ranked[:k].astype(np.float64)
        ranks = np.arange(1, len(top) + 1)
        dcg = float(np.sum(top / np.log2(ranks + 1)))
        recall = float(top.sum() / total_rel)
        ap = float(np.sum(top * np.cumsum(top) / ranks) / total_rel)
        out[k] = (dcg, recall, ap)
    return out


def _ref_evaluate(score, num_items, test, ks, cohorts=None, candidates="catalog"):
    cohort_names = ["all"] if cohorts is None else ["all", "cold_start_users", "rare_items"]
    acc = {c: {k: [0.0, 0.0, 0.0, 0] for k in ks} for c in cohort_names}
    indptr = test.user_indptr
    for u in range(test.num_users):
        lo, hi = indptr[u], indptr[u + 1]
        if lo == hi:
            continue
        items = test.items[lo:hi]
        rel = test.rel[lo:hi].astype(np.float64)
        if candidates == "catalog":
            scores = score(u, None)
            relevance = np.zeros(num_items)
            relevance[items] = rel
        else:
            scores = score(u, items)
            relevance = rel
        for cohort in cohort_names:
            if cohort == "cold_start_users" and not cohorts.cold_users[u]:
                continue
            if cohort == "rare_items":
                cr = np.zeros_like(relevance)
                if candidates == "catalog":
                    cr[items] = rel * cohorts.rare_items[items]
                else:
                    cr = relevance * cohorts.rare_items[items]
            else:
                cr = relevance
            if cr.sum() == 0:
                continue
            for k, (dcg, recall, ap) in _ref_user_metrics(scores, cr, ks).items():
                slot = acc[cohort][k]
                slot[0] += dcg
                slot[1] += recall
                slot[2] += ap
                slot[3] += 1
    reports = []
    for cohort in cohort_names:
        for k in ks:
            sd, sr, sa, n = acc[cohort][k]
            if n == 0:
                continue
            reports.append(MetricReport(method="", run=0, cohort=cohort, k=k,
                                        dcg=sd / n, recall=sr / n, map=sa / n,
                                        num_users=n))
    return reports


def _ref_validation_dcg(score, validation, k):
    indptr = validation.user_indptr
    total, n_users = 0.0, 0
    for u in range(validation.num_users):
        lo, hi = indptr[u], indptr[u + 1]
        if lo == hi:
            continue
        rel = validation.rel[lo:hi].astype(np.float64)
        if rel.sum() == 0:
            continue
        dcg, _, _ = _ref_rank_metrics(score(u, validation.items[lo:hi]), rel, k)
        total += dcg
        n_users += 1
    return total / n_users if n_users else 0.0


def _model_score(model):
    def score(u, items):
        factors = model.item_factors if items is None else model.item_factors[items]
        return model.user_factors[u] @ factors.T
    return score


# Scores rounded to one decimal, so ties are common, with both signed zeros.
_SCORE_VALUES = st.sampled_from([-0.0, 0.0, 0.1, -0.1, 0.2, 0.3, -0.3, 1.0])


@st.composite
def _ranking_cases(draw):
    num_users = draw(st.integers(0, 20))
    num_items = draw(st.integers(1, 12))
    cells = []
    for u in range(num_users):
        # empty, short and full candidate lists (8 items when num_items >= 8)
        n = draw(st.sampled_from([0, 1, 2, min(8, num_items), num_items]))
        for i in draw(st.permutations(range(num_items)))[:n]:
            cells.append((u, i, 0.5, draw(st.integers(0, 1))))
    scores = np.array(draw(st.lists(_SCORE_VALUES, min_size=num_users * num_items,
                                    max_size=num_users * num_items)),
                      dtype=np.float64).reshape(num_users, num_items)
    cohorts = CohortMasks(
        rare_items=np.array(draw(st.lists(st.booleans(), min_size=num_items,
                                          max_size=num_items)), dtype=bool),
        cold_users=np.array(draw(st.lists(st.booleans(), min_size=num_users,
                                          max_size=num_users)), dtype=bool),
    )
    ks = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 5, 8, 9, 16]),
                             min_size=1, max_size=4, unique=True)))
    chunk_cells = draw(st.integers(1, 40))
    return make_implicit(num_users, num_items, cells, split_tag="test"), \
        scores, cohorts, ks, chunk_cells


def _fixed_case(num_users, num_items, counts, seed):
    """Users with the given candidate counts; each with a candidate has a
    relevant item."""
    rng = np.random.default_rng(seed)
    cells = []
    for u, n in zip(range(num_users), counts):
        items = rng.permutation(num_items)[:n]
        rels = (rng.random(n) < 0.5).astype(int)
        rels[:1] = 1
        cells.extend((u, int(i), 0.5, int(r)) for i, r in zip(items, rels))
    scores = np.round(rng.normal(0, 1, (num_users, num_items)), 1)
    cohorts = CohortMasks(rare_items=rng.random(num_items) < 0.5,
                          cold_users=rng.random(num_users) < 0.5)
    return make_implicit(num_users, num_items, cells, split_tag="test"), \
        scores, cohorts, (1, 3, 5, 8, 9, 16), 20


class TestKernelMatchesLoop:
    """The batched kernel against the per-user loops it replaced: every
    mean must be equal, not close."""

    @given(_ranking_cases())
    @example(_fixed_case(6, 8, [8, 8, 3, 0, 8, 5], seed=1))  # 8 candidates at k=8
    @example(_fixed_case(12, 16, [16, 9, 8, 7, 5, 3, 1, 16, 2, 8, 9, 4], seed=2))
    @example((make_implicit(3, 4, [], split_tag="test"), np.zeros((3, 4)),
              CohortMasks(np.ones(4, bool), np.ones(3, bool)), (3,), 5))
    def test_bit_identical_to_reference_loop(self, case):
        test, scores, cohorts, ks, chunk_cells = case

        def patched_scores(model, users, cand_items):
            if cand_items is None:
                return scores[users]
            return np.take_along_axis(scores[users], cand_items, axis=1)

        model = FactorModel(np.zeros((test.num_users, 1)), np.zeros((test.num_items, 1)))

        def score(u, items):
            return scores[u] if items is None else scores[u, items]

        no_hard = CohortMasks(np.zeros(test.num_items, bool), np.zeros(test.num_users, bool))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "_scores", patched_scores)
            mp.setattr(evaluation, "_CHUNK_CELLS", chunk_cells)
            for candidates in ("catalog", "test_only"):
                for masks in (None, cohorts, no_hard):
                    got = evaluate(model, test, ks=ks, cohorts=masks, candidates=candidates)
                    want = _ref_evaluate(score, test.num_items, test, ks, masks, candidates)
                    assert got == want
            for k in ks:
                assert validation_dcg(model, test, k=k) == _ref_validation_dcg(score, test, k)
        if len(test) == 0:
            assert evaluate(model, test, ks=ks, cohorts=cohorts) == []

    @pytest.mark.parametrize("d", [1, 3, 64])
    def test_model_scores_match_per_user_products(self, d):
        # no patching: the stacked matmul gives each user's scores bit for bit
        test, _, cohorts, ks, _ = _fixed_case(40, 30, [30, 12, 12, 7, 3, 1, 0, 8] * 5, seed=d)
        model = init_model(40, 30, d=d, seed=d)
        for candidates in ("catalog", "test_only"):
            got = evaluate(model, test, ks=ks, cohorts=cohorts, candidates=candidates)
            assert got == _ref_evaluate(_model_score(model), 30, test, ks, cohorts, candidates)
        users = np.arange(40)
        assert np.array_equal(evaluation._scores(model, users, None),
                              np.stack([_model_score(model)(u, None) for u in users]))
        assert validation_dcg(model, test, k=5) == \
            _ref_validation_dcg(_model_score(model), test, 5)

    def test_one_user_matches_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            scores = np.round(rng.normal(0, 1, n), 1)
            rel = (rng.random(n) < 0.4).astype(int)
            rel[rng.integers(n)] = 1
            for k in (1, 3, 5, 8, 9, 16, 25):
                assert one_user_metrics(scores, rel, k) == _ref_rank_metrics(scores, rel, k)


class TestRankMetrics:
    """The ranking-metric math, read off ``evaluate`` for one user."""

    def test_single_relevant_ranked_first(self):
        dcg, recall, ap = one_user_metrics([2.0, 1.0, 0.5], [1, 0, 0], k=3)
        assert (dcg, recall, ap) == (1.0, 1.0, 1.0)

    def test_single_relevant_ranked_second(self):
        dcg, recall, ap = one_user_metrics([2.0, 1.0], [0, 1], k=3)
        assert dcg == pytest.approx(1 / LOG2_3, abs=1e-12)  # ~0.63093
        assert recall == 1.0
        assert ap == pytest.approx(0.5)

    def test_two_relevant_ranks_one_and_three(self):
        dcg, recall, ap = one_user_metrics([4.0, 3.0, 2.0, 1.0], [1, 0, 1, 0], k=3)
        assert dcg == pytest.approx(1.0 + 1.0 / 2.0, abs=1e-12)  # log2(4) = 2
        assert recall == 1.0
        assert ap == pytest.approx(0.5 * (1.0 + 2.0 / 3.0), abs=1e-12)

    def test_relevant_below_cutoff(self):
        dcg, recall, ap = one_user_metrics([3.0, 2.0, 1.0], [0, 1, 1], k=2)
        assert dcg == pytest.approx(1 / LOG2_3, abs=1e-12)
        assert recall == pytest.approx(0.5)
        assert ap == pytest.approx(0.25)  # (1/2) * P@2 = (1/2)*(1/2)

    def test_cutoff_beyond_list_length(self):
        dcg, recall, ap = one_user_metrics([2.0, 1.0], [1, 0], k=8)
        assert (dcg, recall, ap) == (1.0, 1.0, 1.0)

    def test_all_relevant_recall_is_min_k_n_over_n(self):
        n = 6
        scores = np.arange(n, 0, -1, dtype=float)
        rel = np.ones(n, dtype=int)
        for k in (1, 2, 3, 8):
            _, recall, _ = one_user_metrics(scores, rel, k)
            assert recall == pytest.approx(min(k, n) / n)

    def test_tie_break_ascending_item_index(self):
        # equal scores: item 0 ranked before item 1
        dcg_a, _, _ = one_user_metrics([1.0, 1.0], [1, 0], k=1)
        dcg_b, _, _ = one_user_metrics([1.0, 1.0], [0, 1], k=1)
        assert dcg_a == 1.0 and dcg_b == 0.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            scores = rng.normal(0, 1, 12)
            rel = (rng.random(12) < 0.4).astype(int)
            if rel.sum() == 0:
                rel[3] = 1
            for k in (3, 5, 8):
                base = one_user_metrics(scores, rel, k)
                squashed = one_user_metrics(np.tanh(scores) * 7 + 2, rel, k)
                assert base == pytest.approx(squashed, abs=1e-12)

    def test_metric_ranges_and_recall_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            scores = rng.normal(0, 1, 10)
            rel = (rng.random(10) < 0.3).astype(int)
            if rel.sum() == 0:
                rel[0] = 1
            prev_recall, prev_dcg = 0.0, 0.0
            for k in (1, 2, 3, 5, 8):
                dcg, recall, ap = one_user_metrics(scores, rel, k)
                assert 0 <= recall <= 1 and 0 <= ap <= 1 and dcg >= 0
                assert recall >= prev_recall - 1e-15
                assert dcg >= prev_dcg - 1e-15
                prev_recall, prev_dcg = recall, dcg

    # graded relevance once gave AP = 2.0: the dataset evaluate reads holds
    # only 0 and 1
    @pytest.mark.parametrize("relevance", [[2, 0], [-1, 1]])
    def test_non_binary_relevance_rejected(self, relevance):
        with pytest.raises(ValueError, match="rel must be binary"):
            one_user_metrics([2.0, 1.0], relevance, k=1)


class TestEvaluate:
    def _two_user_setup(self):
        # user 0: test items 0,1 (0 relevant); user 1: test items 1,2 (2 relevant)
        test = make_implicit(2, 3, [
            (0, 0, 0.9, 1), (0, 1, 0.1, 0),
            (1, 1, 0.8, 1), (1, 2, 0.7, 1),
        ], split_tag="test")
        user_factors = np.array([[1.0, 0.0], [0.0, 1.0]])
        item_factors = np.array([[2.0, 0.3], [1.0, 0.5], [0.5, 1.0]])
        model = FactorModel(user_factors, item_factors)
        return model, test

    def test_hand_built_average(self):
        model, test = self._two_user_setup()
        # user 0 scores: items (2.0, 1.0, 0.5); relevant = {0} at rank 1
        # user 1 scores: items (0.3, 0.5, 1.0); relevant = {1, 2}: ranks 1, 2
        reports = evaluate(model, test, ks=(3,), candidates="catalog")
        rep = reports[0]
        u0 = (1.0, 1.0, 1.0)
        u1_dcg = 1.0 + 1 / LOG2_3
        u1 = (u1_dcg, 1.0, 1.0)
        assert rep.dcg == pytest.approx((u0[0] + u1[0]) / 2)
        assert rep.recall == pytest.approx(1.0)
        assert rep.map == pytest.approx(1.0)
        assert rep.num_users == 2

    def test_test_only_candidates(self):
        model, test = self._two_user_setup()
        reports = evaluate(model, test, ks=(3,), candidates="test_only")
        # same rankings here because test items are top-ranked anyway
        assert reports[0].recall == pytest.approx(1.0)

    def test_oracle_model_beats_random(self):
        rng = np.random.default_rng(5)
        num_users, num_items = 30, 20
        gamma = rng.uniform(0.05, 0.95, size=(num_users, num_items))
        cells = []
        for u in range(num_users):
            for i in rng.choice(num_items, size=8, replace=False):
                g = gamma[u, i]
                cells.append((u, i, g, int(rng.random() < g)))
        test = make_implicit(num_users, num_items, cells, split_tag="test")
        # oracle model scores = gamma itself (rank-20 factorization)
        svd_u, svd_s, svd_vt = np.linalg.svd(gamma, full_matrices=False)
        oracle = FactorModel(svd_u * svd_s, svd_vt.T)
        random_model = init_model(num_users, num_items, d=20, seed=99)
        dcg_oracle = [r for r in evaluate(oracle, test, ks=(5,)) if r.cohort == "all"][0].dcg
        dcg_random = [r for r in evaluate(random_model, test, ks=(5,)) if r.cohort == "all"][0].dcg
        assert dcg_oracle > dcg_random

    def test_cold_start_cohort_empty_when_all_users_warm(self):
        train = make_implicit(2, 8, [(u, i, 0.9, 1) for u in range(2) for i in range(8)])
        test = make_implicit(2, 8, [(0, 0, 0.9, 1), (1, 1, 0.9, 1)], split_tag="test")
        cohorts = compute_cohorts(train)
        model = init_model(2, 8, d=2, seed=0)
        reports = evaluate(model, test, ks=(3,), cohorts=cohorts)
        assert not any(r.cohort == "cold_start_users" for r in reports)
        assert any(r.cohort == "all" for r in reports)

    def test_rare_items_cohort_restricts_credit(self):
        # item 0 popular, items 1 and 2 rare; no user is cold
        cohorts = CohortMasks(rare_items=np.array([False, True, True]),
                              cold_users=np.zeros(6, dtype=bool))
        test = make_implicit(6, 3, [(0, 0, 0.9, 1), (0, 1, 0.4, 1), (1, 0, 0.9, 1)],
                             split_tag="test")
        model = FactorModel(np.ones((6, 1)), np.array([[3.0], [2.0], [1.0]]))
        reports = evaluate(model, test, ks=(3,), cohorts=cohorts)
        rare = [r for r in reports if r.cohort == "rare_items"]
        assert len(rare) == 1
        # only user 0 has a rare relevant item; it sits at catalog rank 2
        assert rare[0].num_users == 1
        assert rare[0].dcg == pytest.approx(1 / LOG2_3)

    @pytest.mark.parametrize("ks", [(0,), (3, -1)])
    def test_cutoff_below_one_rejected(self, ks):
        model, test = self._two_user_setup()
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate(model, test, ks=ks)

    def test_unknown_candidate_mode_rejected(self):
        model, test = self._two_user_setup()
        with pytest.raises(ValueError, match="candidate mode"):
            evaluate(model, test, candidates="test_onyl")

    def test_model_dataset_dimension_check(self):
        test = make_implicit(3, 3, [(0, 0, 0.5, 1)], split_tag="test")
        with pytest.raises(ValueError):
            evaluate(init_model(2, 3, d=2, seed=0), test)


class TestValidationDcg:
    def test_perfect_and_worst_ranking(self):
        val = make_implicit(1, 3, [(0, 0, 0.9, 1), (0, 1, 0.2, 0), (0, 2, 0.2, 0)],
                            split_tag="validation")
        good = FactorModel(np.array([[1.0]]), np.array([[3.0], [2.0], [1.0]]))
        bad = FactorModel(np.array([[1.0]]), np.array([[1.0], [2.0], [3.0]]))
        assert validation_dcg(good, val, k=3) == pytest.approx(1.0)
        assert validation_dcg(bad, val, k=3) == pytest.approx(0.5)  # rank 3

    def test_users_without_val_clicks_excluded(self):
        val = make_implicit(2, 2, [(0, 0, 0.9, 1), (1, 0, 0.3, 0)],
                            split_tag="validation")
        model = FactorModel(np.ones((2, 1)), np.ones((2, 1)))
        assert validation_dcg(model, val, k=5) == pytest.approx(1.0)

    def test_cutoff_below_one_rejected(self):
        val = make_implicit(1, 2, [(0, 0, 0.9, 1)], split_tag="validation")
        model = FactorModel(np.ones((1, 1)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="k must be >= 1"):
            validation_dcg(model, val, k=0)


class TestOneTailedTTest:
    def test_equal_samples_give_half(self):
        a = [0.5, 0.6, 0.7, 0.8]
        assert one_tailed_t_test(a, list(a)) == pytest.approx(0.5)

    def test_clear_separation(self):
        rng = np.random.default_rng(3)
        a = 1.0 + rng.normal(0, 1e-9, 4)
        b = 0.0 + rng.normal(0, 1e-9, 4)
        assert one_tailed_t_test(a, b) < 1e-6

    def test_matches_reference_implementation(self):
        a = [0.5, 0.6, 0.7]
        b = [0.4, 0.5, 0.6]
        expected = stats.ttest_ind(a, b, equal_var=False, alternative="greater").pvalue
        assert one_tailed_t_test(a, b) == pytest.approx(expected, abs=1e-6)

    def test_random_samples_match_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.normal(0.2, 1.0, size=int(rng.integers(3, 30)))
            b = rng.normal(0.0, 2.0, size=int(rng.integers(3, 30)))
            expected = stats.ttest_ind(a, b, equal_var=False, alternative="greater").pvalue
            assert one_tailed_t_test(a, b) == pytest.approx(expected, abs=1e-6)

    def test_t_sf_matches_stdtr(self):
        # the tail both t tests take, against scipy's stdtr(df, -t), the
        # function stats.t.sf calls: Welch-style fractional df, the
        # samples - 1 df of oracle.variance_order and df up to 1e6, both tails
        rng = np.random.default_rng(12)
        t = np.concatenate([[np.inf, 0.0, 1e-300, 5e-324, 1e-160, 40.0, 1e100, 1.3e154, 1e200],
                            rng.normal(0.0, 3.0, 200), rng.uniform(-60, 60, 50)])
        t = np.concatenate([t, -t])
        df = np.concatenate([[1.0, 1.5, 2.0, 2.718, 29.999], rng.uniform(0.5, 120.0, 40),
                             10.0 ** rng.uniform(2, 6, 40), [9, 9999, 99999, 999999, 1e6]])
        got = np.array([[t_sf(ti, di) for di in df] for ti in t])
        assert_t_tail_close(got, stdtr(df[None, :], -t[:, None]), df[None, :])
        for df_int in (9, 9999, 99999):  # an int df, as samples - 1 passes it
            assert_t_tail_close([t_sf(ti, df_int) for ti in t], stdtr(df_int, -t), df_int)
        assert math.isnan(t_sf(np.nan, 3.0))
        assert (t_sf(np.inf, 3.0), t_sf(-np.inf, 3.0)) == (0.0, 1.0)
        assert t_sf(0.0, 3.0) == t_sf(-0.0, 3.0) == t_sf(-1e-300, 1e5) == 0.5

    @pytest.mark.parametrize("df", [0.0, -1.0, np.inf, np.nan])
    def test_t_sf_rejects_df_outside_zero_infinity(self, df):
        with pytest.raises(ValueError, match="df must be positive and finite"):
            t_sf(1.0, df)

    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(0.5, 1e6))
    def test_t_sf_is_a_tail(self, t, u, df):
        # the two tails add up to 1, and the tail falls as t rises; the
        # slack is the largest upward step measured between neighbouring
        # floats (2.7e-14 relative, where the fraction switches branch),
        # rounded up to a power of ten
        assert abs(t_sf(t, df) + t_sf(-t, df) - 1.0) <= 1e-15
        lo, hi = sorted((t, u))
        assert t_sf(hi, df) <= t_sf(lo, df) * (1.0 + 1e-13)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=30),
           st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=30))
    @example([0.5, 0.6, 0.7], [0.4, 0.5, 0.6])
    @example([0.0, 0.0], [0.0, 1e-113])
    def test_p_value_is_the_t_sf_one(self, a, b):
        # Welch's t and df as one_tailed_t_test forms them, and the
        # stats.t.sf tail it took before, within t_sf's stated accuracy; a
        # df that under- or overflows is formed from the variances over the
        # larger one, without a warning
        va = np.var(a, ddof=1) / len(a)
        vb = np.var(b, ddof=1) / len(b)
        assume(va + vb > 0.0)  # else no tail is read
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = one_tailed_t_test(a, b)
        t = (np.mean(a) - np.mean(b)) / np.sqrt(va + vb)

        def welch_df(va, vb):
            return (va + vb) ** 2 / (va**2 / (len(a) - 1) + vb**2 / (len(b) - 1))

        with np.errstate(all="ignore"):
            df = welch_df(va, vb)
        if not np.isfinite(df):
            df = welch_df(va / max(va, vb), vb / max(va, vb))
        assert_t_tail_close(p, stats.t.sf(t, df), df)

    @pytest.mark.parametrize("scale", [2.0**-520, 2.0**500], ids=["tiny", "huge"])
    def test_df_out_of_float_range_is_rescaled(self, scale):
        # at these scales the squared variances in Welch's df under- or
        # overflow; the p-value is the one of the unscaled samples
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert one_tailed_t_test([0.0, 0.0], [0.0, scale]) == pytest.approx(0.75)
            rng = np.random.default_rng(6)
            a, b = rng.normal(0.3, 1.0, 7), rng.normal(0.0, 2.0, 5)
            assert one_tailed_t_test(a * scale, b * scale) == pytest.approx(
                one_tailed_t_test(a, b), rel=1e-12)

    def test_degenerate_zero_variance_flagged(self):
        with pytest.warns(UserWarning):
            p = one_tailed_t_test([1.0, 1.0], [1.0, 1.0])
        assert p == 0.5

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            one_tailed_t_test([1.0], [0.5, 0.6])


class TestComputeCohorts:
    def test_thresholds_at_their_boundaries(self):
        # rare items have < 100 training clicks, cold-start users < 6: item 0
        # has 99 clicks and item 1 100; user 0 has 5 clicks and user 1 6.
        # User 0's exposed but unclicked cell on item 7 counts for neither.
        cells = [(u, 0, 0.5, 1) for u in range(99)] + [(u, 1, 0.5, 1) for u in range(100)]
        cells += [(0, i, 0.5, 1) for i in (2, 3, 4)] + [(1, i, 0.5, 1) for i in (2, 3, 4, 5)]
        cells.append((0, 7, 0.5, 0))
        cohorts = compute_cohorts(make_implicit(100, 8, cells))
        assert cohorts.rare_items.tolist() == [True, False] + [True] * 6
        assert cohorts.cold_users[:2].tolist() == [True, False]
        assert cohorts.cold_users[2:].all()  # 2 clicks each, user 99 one
