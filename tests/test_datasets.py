import ast
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uplrec.datasets import (
    ExplicitRatings,
    ImplicitDataset,
    align_index_spaces,
    generate_semi_synthetic,
    load_triplets,
    rating_to_relevance,
    read_lines,
    save_dataset,
    split_validation,
)
from uplrec.errors import IntegrityError, ParseError

from conftest import make_implicit


def ratings_from_entries(entries, num_users, num_items):
    u, i, r = zip(*entries)
    return ExplicitRatings(num_users, num_items, np.array(u), np.array(i), np.array(r),
                           np.arange(num_users), np.arange(num_items))


def exposed_pairs(ds):
    return set(zip(ds.users.tolist(), ds.items.tolist()))


SRC = Path(__file__).resolve().parents[1] / "src" / "uplrec"
# the functions that may read a file: the one reader of text files, the
# config hash of the rating files' bytes and the binary checkpoint's reader
FILE_READERS = {("datasets", "read_lines"), ("experiment", "ExperimentConfig.hash"),
                ("factor_model", "load_checkpoint")}


def file_reads(node, scope=()):
    """Yield the enclosing class and function names of each call under
    ``node`` that reads a file: ``open(path[, mode])`` or ``path.open([mode])``
    without a write mode, ``read_text()`` and ``read_bytes()``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            method = isinstance(func, ast.Attribute)
            name = func.attr if method else getattr(func, "id", None)
            at = 0 if method else 1  # the mode's place in path.open(mode) or open(path, mode)
            modes = [k.value for k in child.keywords if k.arg == "mode"] + child.args[at:at + 1]
            writes = any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+")
                         for m in modes)
            if name in ("read_text", "read_bytes") or (name == "open" and not writes):
                yield ".".join(scope)
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from file_reads(child, scope + (child.name,) if named else scope)


class TestReadLines:
    def test_every_file_read_goes_through_the_reader(self):
        reads = {(module.stem, scope) for module in sorted(SRC.glob("*.py"))
                 for scope in file_reads(ast.parse(module.read_text()))}
        assert reads == FILE_READERS

    def test_lines_end_as_in_a_text_mode_file(self, tmp_path):
        # \n, \r and \r\n end a line; a form feed does not
        path = tmp_path / "f.txt"
        path.write_bytes(b"a = 1 # note\r\n\r\n  b\x0cc  \rd\n# a comment\n\xc3\xa9\n")
        assert list(read_lines(path, "#")) == [(1, "a = 1"), (3, "b\x0cc"), (4, "d"),
                                               (6, "\u00e9")]
        assert next(read_lines(path)) == (1, "a = 1 # note")

    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"1\t2\t3\r\n\r4\t5\t\xe9\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: not UTF-8 text")):
            list(read_lines(path))


class TestLoadTriplets:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("3\t17\t5\n")
        ratings = load_triplets(path)
        assert ratings.num_users == 1 and ratings.num_items == 1
        # raw ids are remapped to dense 0-based indices but kept for reference
        assert ratings.user_ids.tolist() == [3]
        assert ratings.item_ids.tolist() == [17]
        assert (ratings.users[0], ratings.items[0], ratings.ratings[0]) == (0, 0, 5)

    def test_remap_is_contiguous(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("10\t7\t3\n2\t7\t4\n10\t99\t1\n")
        ratings = load_triplets(path)
        assert ratings.num_users == 2 and ratings.num_items == 2
        assert sorted(np.unique(ratings.users)) == [0, 1]
        assert ratings.user_ids.tolist() == [2, 10]
        assert ratings.item_ids.tolist() == [7, 99]

    def test_rating_out_of_bounds(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1\t2\t7\n")
        with pytest.raises(ParseError, match=":1:"):
            load_triplets(path)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1\t2\t3\nbroken line here also bad\n")
        with pytest.raises(ParseError, match=":2:"):
            load_triplets(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        # the file names the repeat's line and the first; built directly,
        # the ratings still check it
        path = tmp_path / "r.txt"
        path.write_text("1\t2\t3\n5\t6\t1\n1\t2\t4\n")
        with pytest.raises(ParseError, match=r"r\.txt:3: duplicate \(user, item\) pair "
                                             r"\(1, 2\), first on line 1$"):
            load_triplets(path)
        with pytest.raises(IntegrityError):
            ratings_from_entries([(0, 1, 3), (0, 1, 4)], 1, 2)

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank_lines"])
    def test_file_without_ratings_rejected(self, tmp_path, text):
        path = tmp_path / "r.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=r"r\.txt:1: no ratings$"):
            load_triplets(path)

    def test_dense_row_zero_means_unrated(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 4 0\n1 0 0\n")
        ratings = load_triplets(path, format="dense")
        assert ratings.num_users == 2 and ratings.num_items == 3
        triples = set(zip(ratings.users.tolist(), ratings.items.tolist(),
                          ratings.ratings.tolist()))
        assert triples == {(0, 1, 4), (1, 0, 1)}

    def test_dense_rating_out_of_bounds(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 9 0\n")
        with pytest.raises(ParseError):
            load_triplets(path, format="dense")

    def test_align_index_spaces(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("5\t10\t3\n")
        b.write_text("5\t20\t4\n9\t10\t1\n")
        ra, rb = align_index_spaces(load_triplets(a), load_triplets(b))
        assert ra.num_users == rb.num_users == 2
        assert ra.num_items == rb.num_items == 2
        assert ra.user_ids.tolist() == [5, 9]
        # user 5 maps to the same dense index in both
        assert ra.users[0] == rb.users[0]


class TestRatingToRelevance:
    def test_top_rating_is_one(self):
        assert rating_to_relevance(5, 0.0) == 1.0
        assert rating_to_relevance(5, 0.1) == pytest.approx(1.0, abs=1e-15)

    def test_hand_computed_value(self):
        # 0.1 + 0.9 * (2^1 - 1)/(2^5 - 1), checked by independent evaluation
        assert rating_to_relevance(1, 0.1) == pytest.approx(0.12903225806451613, abs=1e-15)

    def test_bottom_rating_no_epsilon(self):
        assert rating_to_relevance(1, 0.0) == pytest.approx(1 / 31, abs=1e-15)

    def test_strictly_increasing_in_rating(self):
        for eps in (0.0, 0.1, 0.5, 0.9):
            vals = [rating_to_relevance(r, eps) for r in range(1, 6)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bounds(self):
        for eps in (0.0, 0.1, 0.5):
            for r in range(1, 6):
                assert eps <= rating_to_relevance(r, eps) <= 1.0

    def test_rating_out_of_range(self):
        with pytest.raises(ValueError):
            rating_to_relevance(0, 0.1)
        with pytest.raises(ValueError):
            rating_to_relevance(6, 0.1)

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            rating_to_relevance(3, 1.0)


class TestGenerateSemiSynthetic:
    def test_certain_relevance_is_deterministic(self):
        ratings = ratings_from_entries([(0, 0, 5)], 1, 2)
        ds = generate_semi_synthetic(ratings, epsilon=0.0, seed=1)
        assert ds.gamma[0] == 1.0
        assert ds.rel[0] == 1 and ds.is_clicked([0], [0])[0]

    def test_unrated_pair_is_unexposed(self):
        ratings = ratings_from_entries([(0, 0, 5)], 1, 2)
        for seed in (0, 1, 2):
            ds = generate_semi_synthetic(ratings, epsilon=0.0, seed=seed)
            assert exposed_pairs(ds) == {(0, 0)}
            assert not ds.is_clicked([0], [1])[0]

    def test_click_rate_binomial_concentration(self):
        # rating 3 with eps such that gamma = 0.5 is not on the grid, so use
        # a direct 0.5-gamma construction: rating 3, eps solving the formula
        # is awkward; instead many pairs with gamma=0.5 via epsilon choice:
        # gamma(3, eps) = eps + (1-eps)*7/31 = 0.5  =>  eps = (0.5-7/31)/(1-7/31)
        eps = (0.5 - 7 / 31) / (1 - 7 / 31)
        n = 10_000
        entries = [(u, i, 3) for u in range(100) for i in range(100)]
        ratings = ratings_from_entries(entries, 100, 100)
        ds = generate_semi_synthetic(ratings, epsilon=eps, seed=42)
        assert np.allclose(ds.gamma, 0.5)
        clicks = ds.num_clicks
        sigma = np.sqrt(n * 0.25)
        assert abs(clicks - n / 2) < 3 * sigma

    def test_regeneration_bit_identical(self):
        path_entries = [(u, i, (u + i) % 5 + 1) for u in range(20) for i in range(15)]
        ratings = ratings_from_entries(path_entries, 20, 15)
        a = generate_semi_synthetic(ratings, epsilon=0.1, seed=9)
        b = generate_semi_synthetic(ratings, epsilon=0.1, seed=9)
        assert np.array_equal(a.rel, b.rel)
        assert np.array_equal(a.gamma, b.gamma)

    def test_clicks_subset_of_exposed_with_rel_one(self):
        entries = [(u, i, (u * 7 + i) % 5 + 1) for u in range(10) for i in range(8)]
        ratings = ratings_from_entries(entries, 10, 8)
        ds = generate_semi_synthetic(ratings, epsilon=0.1, seed=3)
        cu, ci = ds.click_pairs
        assert set(zip(cu.tolist(), ci.tolist())) <= exposed_pairs(ds)
        # every click carries relevance draw 1 (click = exposure * rel)
        assert np.all(ds.rel[ds.is_clicked(ds.users, ds.items)] == 1)


@st.composite
def _cell_lists(draw):
    """(num_users, num_items, (u, i, rel) cells in any order, no cell twice)."""
    num_users, num_items = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(0, num_users - 1),
                                    st.integers(0, num_items - 1), st.integers(0, 1)),
                          unique_by=lambda c: c[:2]))
    return num_users, num_items, cells


class TestCellTable:
    @given(_cell_lists())
    @example((2, 3, [(1, 2, 0), (0, 1, 0)]))  # no click
    @example((2, 2, [(1, 1, 1), (0, 0, 0), (1, 0, 1), (0, 1, 1)]))  # every cell exposed
    @example((3, 2, [(2, 1, 1), (0, 0, 1)]))  # user 1 has no cells
    @example((2, 2, [(1, 1, 1), (0, 0, 1), (1, 0, 1), (0, 1, 1)]))  # every cell clicked: N0 = 0
    @example((3, 4, [(1, 2, 1)]))  # one click
    @example((3, 4, [(2, 3, 1), (0, 0, 1), (1, 1, 0)]))  # clicks on the first and last cell
    def test_matches_set_reference(self, case):
        num_users, num_items, cells = case
        ds = make_implicit(num_users, num_items, [(u, i, 0.5, r) for u, i, r in cells])
        exposed = {(u, i) for u, i, _ in cells}
        clicked = {(u, i) for u, i, r in cells if r == 1}
        grid = [(u, i) for u in range(num_users) for i in range(num_items)]
        users, items = np.array(grid).T
        assert exposed_pairs(ds) == exposed
        assert ds.click_codes.tolist() == sorted(u * num_items + i for u, i in clicked)
        assert ds.click_codes.dtype == np.int64
        assert ds.is_clicked(users, items).dtype == bool
        non_clicks = [u * num_items + i for u, i in grid if (u, i) not in clicked]
        assert ds.non_click_at(np.arange(len(non_clicks))).tolist() == non_clicks
        assert ds.click_gaps.nbytes == 8 * len(clicked)
        assert ds.is_clicked(users, items).tolist() == [c in clicked for c in grid]
        assert list(zip(*(a.tolist() for a in ds.click_pairs))) == sorted(clicked)
        assert all(a.dtype == np.int64 for a in ds.click_pairs)
        item_counts = [sum(i == item for _, i in clicked) for item in range(num_items)]
        user_counts = [sum(u == user for u, _ in clicked) for user in range(num_users)]
        assert ds.item_click_counts.tolist() == item_counts
        assert ds.user_click_counts.tolist() == user_counts
        assert ds.item_click_counts.dtype == ds.user_click_counts.dtype == np.int64


class TestSplitValidation:
    def _dataset(self, n_users=10, n_items=10):
        cells = [(u, i, 0.5, (u + i) % 2) for u in range(n_users) for i in range(n_items)]
        return make_implicit(n_users, n_items, cells)

    def test_exact_partition_sizes(self):
        ds = self._dataset()  # 100 exposed cells
        train, val = split_validation(ds, 0.1, seed=0)
        assert len(val) == 10 and len(train) == 90

    def test_union_and_disjoint(self):
        ds = self._dataset()
        train, val = split_validation(ds, 0.3, seed=5)
        assert exposed_pairs(train) | exposed_pairs(val) == exposed_pairs(ds)
        assert not exposed_pairs(train) & exposed_pairs(val)

    def test_same_seed_identical(self):
        ds = self._dataset()
        t1, v1 = split_validation(ds, 0.1, seed=3)
        t2, v2 = split_validation(ds, 0.1, seed=3)
        for a, b in ((v1, v2), (t1, t2)):
            for column in ("users", "items", "rel"):
                assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_fraction_bounds(self):
        ds = self._dataset()
        with pytest.raises(ValueError):
            split_validation(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_validation(ds, 1.0, seed=0)


class TestImplicitDatasetValidation:
    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_gamma_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"gamma outside \[0, 1\]"):
            ImplicitDataset(2, 2, [0, 1], [0, 1], [bad, 0.5], [0, 1])

    @pytest.mark.parametrize("users, items, error, message", [
        ([0, 2], [0, 1], ValueError, "user index out of range"),
        ([0, -1], [0, 1], ValueError, "user index out of range"),
        ([0, 1], [2, 1], ValueError, "item index out of range"),
        ([1, 1], [0, 0], IntegrityError, r"duplicate \(user, item\) pair"),
    ], ids=["user_high", "user_negative", "item_high", "repeated_cell"])
    def test_cells_refused_as_the_ratings_refuse_them(self, users, items, error, message):
        # both classes check their cells through one helper
        with pytest.raises(error, match=message):
            ImplicitDataset(2, 2, users, items, [0.5, 0.5], [0, 1])
        with pytest.raises(error, match=message):
            ratings_from_entries([(u, i, 3) for u, i in zip(users, items)], 2, 2)


class TestSaveLoadRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        # the record a dataset leaves: its columns, gamma exact at %.17g, and
        # meta.json's counts and generation settings
        entries = [(u, i, (u + 3 * i) % 5 + 1) for u in range(7) for i in range(5)]
        ratings = ratings_from_entries(entries, 7, 5)
        ds = generate_semi_synthetic(ratings, epsilon=0.1, seed=11)
        save_dataset(ds, tmp_path / "d")
        assert json.loads((tmp_path / "d" / "meta.json").read_text()) == {
            "format_version": 1, "num_users": 7, "num_items": 5, "num_exposed": 35,
            "num_clicks": ds.num_clicks, "split_tag": "train", "epsilon": 0.1, "seed": 11,
            "r_max": 5}
        # the file's bytes: a header, then one (user, item)-sorted row per cell
        data = (tmp_path / "d" / "exposed.tsv").read_bytes()
        assert data.startswith(b"user\titem\tgamma\trel\n0\t0\t0.12903225806451613\t1\n"
                               b"0\t1\t0.53548387096774197\t1\n0\t2\t0.18709677419354839\t0\n")
        assert hashlib.sha256(data).hexdigest() == \
            "5babc327859723a943cf6e182d2bf7385c4a0179131a524b8c2f73c6a32f8422"
        rows = [line.split("\t") for line in data.decode().splitlines()[1:]]
        assert np.array_equal([float(g) for _, _, g, _ in rows], ds.gamma)
