"""Explicit-rating ingestion and semi-synthetic implicit-feedback generation.

Explicit star ratings are mapped to relevance probabilities, exposure is
defined by the rated/unrated status of each (user, item) cell, and clicks
are drawn as click = exposure * Bernoulli(relevance).  Generated datasets
keep the ground-truth relevance probabilities so estimators can be checked
against them later.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import IntegrityError, ParseError

DATASET_FORMAT_VERSION = 1
R_MAX = 5  # star ratings run from 1 to R_MAX


def _check_distinct_cells(codes):
    """IntegrityError unless the ascending cell codes user * num_items + item
    name each (user, item) pair once."""
    if np.any(np.diff(codes) <= 0):
        raise IntegrityError("duplicate (user, item) pair")


@dataclass
class ExplicitRatings:
    """Sparse (user, item, rating) triplets with dense 0-based indices.

    ``user_ids`` / ``item_ids`` map each dense index back to the raw id it
    was remapped from, so reports can reference original identifiers.
    """

    num_users: int
    num_items: int
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    user_ids: np.ndarray
    item_ids: np.ndarray

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.int64)
        self.items = np.asarray(self.items, dtype=np.int64)
        self.ratings = np.asarray(self.ratings, dtype=np.int64)
        self.validate()

    def validate(self):
        if len(self.users) != len(self.items) or len(self.users) != len(self.ratings):
            raise ValueError("users/items/ratings length mismatch")
        if len(self.users) and (self.users.min() < 0 or self.users.max() >= self.num_users):
            raise ValueError("user index out of range")
        if len(self.items) and (self.items.min() < 0 or self.items.max() >= self.num_items):
            raise ValueError("item index out of range")
        if len(self.ratings) and (self.ratings.min() < 1 or self.ratings.max() > R_MAX):
            raise ValueError(f"rating outside [1, {R_MAX}]")
        _check_distinct_cells(np.sort(self.users * self.num_items + self.items))

    def __len__(self):
        return len(self.users)


def read_lines(path, comment=None):
    """Yield (line number, line) for each line of a UTF-8 text file, split at
    \\n, \\r or \\r\\n as a text-mode file is, cut at ``comment`` and
    stripped, unless blank; a line that is not UTF-8 raises ParseError."""
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:  # no byte of a multi-byte UTF-8 character is a line end
            line = raw.decode()
        except UnicodeDecodeError:
            raise ParseError(path, lineno, "not UTF-8 text") from None
        line = (line.partition(comment)[0] if comment else line).strip()
        if line:
            yield lineno, line


def refuse_repeats(path, what):
    """A check(key, lineno) for a table reader: ParseError at line ``lineno``
    of ``path`` when ``key`` came before, naming ``what`` and its first line."""
    first_line = {}

    def check(key, lineno):
        if first_line.setdefault(key, lineno) != lineno:
            raise ParseError(path, lineno, f"duplicate {what} {key}, "
                             f"first on line {first_line[key]}")
    return check


def write_tsv(path, header, rows, comment=None):
    """Write tab-separated lines: the ``comment`` cells after '#' and the
    ``header`` names, each if given, then each row's cells as ``str`` gives."""
    with open(path, "w") as fh:
        if comment:
            fh.write("# " + "\t".join(comment) + "\n")
        if header:
            fh.write("\t".join(header) + "\n")
        fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def load_triplets(path, format="triplets") -> ExplicitRatings:
    """Load explicit ratings from disk.

    ``format="triplets"``: lines of "user<TAB>item<TAB>rating" with arbitrary
    integer ids, remapped to contiguous 0-based indices (sorted raw-id order).
    ``format="dense"``: whitespace-separated integer matrix, one row per user,
    0 meaning unrated; indices are the row/column positions.
    """
    path = Path(path)
    if format == "triplets":
        return _load_triplet_file(path)
    if format == "dense":
        return _load_dense_file(path)
    raise ValueError(f"unknown format {format!r}")


def _load_triplet_file(path: Path) -> ExplicitRatings:
    raw_users, raw_items, ratings = [], [], []
    repeated = refuse_repeats(path, "(user, item) pair")
    for lineno, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected 3 fields, got {len(parts)}")
        try:
            u, i, r = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(path, lineno, f"non-integer field in {line!r}") from None
        if not 1 <= r <= R_MAX:
            raise ParseError(path, lineno, f"rating {r} outside [1, {R_MAX}]")
        repeated((u, i), lineno)
        raw_users.append(u)
        raw_items.append(i)
        ratings.append(r)
    if not ratings:
        raise ParseError(path, 1, "no ratings")
    raw_users = np.asarray(raw_users, dtype=np.int64)
    raw_items = np.asarray(raw_items, dtype=np.int64)
    user_ids, users = np.unique(raw_users, return_inverse=True)
    item_ids, items = np.unique(raw_items, return_inverse=True)
    return ExplicitRatings(
        num_users=len(user_ids),
        num_items=len(item_ids),
        users=users,
        items=items,
        ratings=np.asarray(ratings),
        user_ids=user_ids,
        item_ids=item_ids,
    )


def _load_dense_file(path: Path) -> ExplicitRatings:
    rows = []
    width = None
    for lineno, line in read_lines(path):
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(path, lineno, "non-integer entry") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(path, lineno, f"expected {width} columns, got {len(row)}")
        for r in row:
            if not 0 <= r <= R_MAX:
                raise ParseError(path, lineno, f"rating {r} outside [0, {R_MAX}]")
        rows.append(row)
    if not rows:
        raise ParseError(path, 1, "empty rating matrix")
    mat = np.asarray(rows, dtype=np.int64)
    users, items = np.nonzero(mat)
    return ExplicitRatings(
        num_users=mat.shape[0],
        num_items=mat.shape[1],
        users=users,
        items=items,
        ratings=mat[users, items],
        user_ids=np.arange(mat.shape[0]),
        item_ids=np.arange(mat.shape[1]),
    )


def align_index_spaces(a: ExplicitRatings, b: ExplicitRatings):
    """Remap two rating sets (e.g. train and test files) onto one shared
    0-based index space, using the union of their raw ids."""
    def union(x, y):  # sorted, then diffed: np.union1d would import numpy.ma
        ids = np.sort(np.concatenate((x, y)))
        return np.concatenate((ids[:1], ids[1:][np.diff(ids) != 0]))

    user_ids = union(a.user_ids, b.user_ids)
    item_ids = union(a.item_ids, b.item_ids)

    def remap(r: ExplicitRatings) -> ExplicitRatings:
        return replace(r, num_users=len(user_ids), num_items=len(item_ids),
                       users=np.searchsorted(user_ids, r.user_ids[r.users]),
                       items=np.searchsorted(item_ids, r.item_ids[r.items]),
                       user_ids=user_ids, item_ids=item_ids)

    return remap(a), remap(b)


def rating_to_relevance(rating, epsilon):
    """Relevance probability of a star rating:
    epsilon + (1 - epsilon) * (2^rating - 1) / (2^R_MAX - 1).

    Elementwise; a scalar gives a numpy scalar.  Ratings must lie in [1, R_MAX].
    """
    rating = np.asarray(rating)
    if not 0.0 <= float(epsilon) < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    if np.any(rating < 1) or np.any(rating > R_MAX):
        raise ValueError(f"rating outside [1, {R_MAX}]")
    return epsilon + (1.0 - epsilon) * (np.exp2(rating) - 1.0) / (2.0**R_MAX - 1.0)


@dataclass
class ImplicitDataset:
    """Implicit-feedback view of a rated matrix, with ground truth attached.

    One row per *exposed* cell (a rated (user, item) pair), sorted by
    (user, item).  Exposure is 1 on every stored cell, so click == rel there;
    unstored cells have exposure 0 and click 0.  Treat instances as
    immutable after construction.
    """

    num_users: int
    num_items: int
    users: np.ndarray  # per exposed cell
    items: np.ndarray
    gamma: np.ndarray  # ground-truth relevance probability
    rel: np.ndarray  # Bernoulli(gamma) draw
    split_tag: str = "train"
    epsilon: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.int64)
        self.items = np.asarray(self.items, dtype=np.int64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.rel = np.asarray(self.rel, dtype=np.int8)
        order = np.lexsort((self.items, self.users))
        self.users = self.users[order]
        self.items = self.items[order]
        self.gamma = self.gamma[order]
        self.rel = self.rel[order]
        self.validate()

    def validate(self):
        n = len(self.users)
        if not (len(self.items) == len(self.gamma) == len(self.rel) == n):
            raise ValueError("column length mismatch")
        if n and (self.users.min() < 0 or self.users.max() >= self.num_users):
            raise ValueError("user index out of range")
        if n and (self.items.min() < 0 or self.items.max() >= self.num_items):
            raise ValueError("item index out of range")
        # written so that NaN fails the check
        if not np.all((self.gamma >= 0) & (self.gamma <= 1)):
            raise ValueError("gamma outside [0, 1]")
        if not np.all(np.isin(self.rel, (0, 1))):
            raise ValueError("rel must be binary")
        _check_distinct_cells(self.users * self.num_items + self.items)  # lexsorted

    def __len__(self):
        return len(self.users)

    @property
    def num_clicks(self) -> int:
        return int(self.rel.sum())

    @cached_property
    def click_table(self) -> np.ndarray:
        """(num_users, num_items) bool table: True on a click."""
        table = np.zeros((self.num_users, self.num_items), dtype=bool)
        table[self.users, self.items] = self.rel
        return table

    @cached_property
    def click_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self.click_table)

    @cached_property
    def non_click_cells(self) -> np.ndarray:
        return np.flatnonzero(~self.click_table)  # u * num_items + i, exposed or not

    @cached_property
    def item_click_counts(self) -> np.ndarray:
        return np.count_nonzero(self.click_table, axis=0)

    @cached_property
    def user_click_counts(self) -> np.ndarray:
        return np.count_nonzero(self.click_table, axis=1)

    @cached_property
    def user_indptr(self) -> np.ndarray:
        """CSR-style offsets into the exposed-cell arrays, one slice per user."""
        return np.searchsorted(self.users, np.arange(self.num_users + 1))

    def is_clicked(self, users, items) -> np.ndarray:
        return self.click_table[users, items]


def generate_semi_synthetic(ratings: ExplicitRatings, epsilon: float, seed: int,
                            split_tag: str = "train") -> ImplicitDataset:
    """Turn explicit ratings into implicit feedback with known ground truth.

    Exposure o=1 exactly on rated cells; relevance r ~ Bernoulli(gamma) with
    gamma from :func:`rating_to_relevance`; click c = o*r.  Regeneration with
    the same seed is bit-identical.
    """
    gamma = rating_to_relevance(ratings.ratings, epsilon)
    rng = np.random.default_rng(seed)
    # Draw in (user, item) order so the stream is independent of file order.
    order = np.lexsort((ratings.items, ratings.users))
    rel = np.empty(len(ratings), dtype=np.int8)
    rel[order] = (rng.random(len(ratings)) < gamma[order]).astype(np.int8)
    return ImplicitDataset(
        num_users=ratings.num_users,
        num_items=ratings.num_items,
        users=ratings.users,
        items=ratings.items,
        gamma=gamma,
        rel=rel,
        split_tag=split_tag,
        epsilon=float(epsilon),
        seed=seed,
    )


def split_validation(dataset: ImplicitDataset, fraction: float, seed: int):
    """Partition exposed cells uniformly at random into (train, validation).

    Validation size is floor(fraction * cells).  Union equals the input,
    intersection is empty, and the same seed yields the same partition.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n = len(dataset)
    n_val = int(np.floor(fraction * n))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    val_mask = np.zeros(n, dtype=bool)
    val_mask[perm[:n_val]] = True

    def take(mask, tag):
        return replace(dataset, users=dataset.users[mask], items=dataset.items[mask],
                       gamma=dataset.gamma[mask], rel=dataset.rel[mask], split_tag=tag)

    return take(~val_mask, dataset.split_tag), take(val_mask, "validation")


def save_dataset(dataset: ImplicitDataset, out_dir):
    """Write a dataset's record, which nothing reads back: meta.json and
    exposed.tsv, of user, item, gamma (%.17g) and rel, sorted by (user, item)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": DATASET_FORMAT_VERSION,
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
        "num_exposed": len(dataset),
        "num_clicks": dataset.num_clicks,
        "split_tag": dataset.split_tag,
        "epsilon": dataset.epsilon,
        "seed": dataset.seed,
        "r_max": R_MAX,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    write_tsv(out / "exposed.tsv", ("user", "item", "gamma", "rel"),
              zip(dataset.users, dataset.items, (f"{g:.17g}" for g in dataset.gamma),
                  dataset.rel))


def save_index_maps(out_dir, user_ids: np.ndarray, item_ids: np.ndarray):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, ids in (("user_map.tsv", user_ids), ("item_map.tsv", item_ids)):
        write_tsv(out / name, ("index", "raw_id"), enumerate(ids))
