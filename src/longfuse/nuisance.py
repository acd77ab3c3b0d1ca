"""Nuisance models for the general estimators.

Three estimation methods are provided:

* ``frequency`` — exact cell tables for fully discrete features; this is the
  reference method the identification-oracle tests run against.
* ``knn`` — k-nearest-neighbor smoothing over standardized features for
  continuous data (default k = ceil(n**0.8) within arm; Euclidean metric).
  One feature uses an exact sorted-window search; more features use one
  exact brute-force search, :func:`_neighbour_blocks`, that holds 2**16
  squared distances at a time and sums them column by column in numpy's own
  summation order, so its distances, and the neighbours ``argpartition``
  picks from them, match a 3-D broadcast ``((q - z) ** 2).sum(axis=-1)``
  exactly, ties included.
* ``binning`` — equal-mass binning of a continuous secondary outcome, used
  only by the density-ratio fit (default 20 bins).

All fitted objects are immutable after construction; evaluation is read-only.
"""

import math

import numpy as np

from .exceptions import EstimationError, PositivityError, ValidationError, WarningRecord
from .sample import CombinedSample

FREQUENCY = "frequency"
KNN = "knn"
BINNING = "binning"


def default_knn_k(n: int) -> int:
    return max(1, math.ceil(n ** 0.8))


def _check_knn_k(k: int, n: int) -> None:
    if k < 1:
        raise ValidationError("knn requires k >= 1")
    if k > n:
        raise EstimationError(f"k={k} exceeds arm size {n}")


# -- integer cell codes --------------------------------------------------------


def _find(table: np.ndarray, query: np.ndarray):
    """Positions of query values in a sorted table, and whether each is present."""
    pos = np.searchsorted(table, query)
    return pos, table[np.minimum(pos, len(table) - 1)] == query


# a presence map over 0..max beats np.unique's sort while max stays within
# this many times the row count
_DENSE_SPAN = 4


def _unique_inverse(values: np.ndarray):
    """``np.unique(values, return_inverse=True)``; small non-negative integer
    values (treatment, categorical codes, bin indices, merge keys) are coded
    from a bincount presence map and its cumulative sum instead of a sort."""
    n = len(values)
    if n and values.min() >= 0 and values.max() <= _DENSE_SPAN * n:
        ints = values.astype(np.int64)
        if values.dtype.kind == "i" or np.array_equal(ints, values):
            present = np.bincount(ints).astype(bool)
            rank = np.cumsum(present) - 1
            return np.flatnonzero(present).astype(values.dtype), rank[ints]
    return np.unique(values, return_inverse=True)


class CellTable:
    """Dense integer cell codes for the rows of a matrix of discrete columns.

    Codes run from 0 to ``n_cells - 1`` in lexicographic order of the rows'
    values, so they do not depend on row order. Each column is coded by
    :func:`_unique_inverse` and folded into the running code in mixed radix;
    the running code is re-densified after every column, so it stays below
    n_rows * n_levels and cannot overflow whatever the product of the level
    counts. A matrix with no columns puts every row in one cell.
    """

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.float64)
        self._levels, self._merged = [], []
        code = np.zeros(rows.shape[0], dtype=np.int64)
        n_cells = 1
        for col in rows.T:
            levels, inv = _unique_inverse(col)
            merged, code = _unique_inverse(code * len(levels) + inv)
            self._levels.append(levels)
            self._merged.append(merged)
            n_cells = len(merged)
        self.codes = code
        self.n_cells = n_cells

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Codes of query rows in this table; -1 flags a row whose values
        never occur together in the fitted rows."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[1] != len(self._levels):
            raise ValidationError(
                f"query rows have {rows.shape[1]} columns, the cell table {len(self._levels)}")
        code = np.zeros(rows.shape[0], dtype=np.int64)
        known = np.ones(rows.shape[0], dtype=bool)
        for col, levels, merged in zip(rows.T, self._levels, self._merged):
            inv, hit = _find(levels, col)
            code, seen = _find(merged, code * len(levels) + inv)
            known &= hit & seen
        return np.where(known, code, -1)


def cell_codes(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense integer code of each row of a matrix of discrete columns, and the
    number of distinct rows; see :class:`CellTable`."""
    table = CellTable(rows)
    return table.codes, table.n_cells


# -- low-level predictors ------------------------------------------------------


class FrequencyMean:
    """Exact cell means over the distinct feature rows."""

    def __init__(self, features: np.ndarray, y: np.ndarray):
        F = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if F.shape[0] != len(y):
            F = F.T
        self._d = F.shape[1]
        if self._d == 0:
            self._global = float(np.mean(y))
            return
        self._cells = CellTable(F)
        # bincount adds in row order, as a running per-cell sum would
        self.means = np.bincount(self._cells.codes, weights=y) / np.bincount(self._cells.codes)

    def predict(self, features: np.ndarray) -> np.ndarray:
        F = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if self._d == 0:
            return np.full(F.shape[0] if F.ndim == 2 else 1, self._global)
        codes = self._cells.lookup(F)
        missing = np.flatnonzero(codes < 0)
        if len(missing):
            raise PositivityError(f"query lands in empty cell {tuple(F[missing[0]].tolist())}")
        return self.means[codes]


# distances per chunk of the brute-force search: 512 KB per (rows, n) array,
# so a chunk's distance, difference and index arrays stay in a 2 MB L2 cache
_CHUNK_DISTANCES = 2**16


def _squared_distances(block, Zt, cols, out, diff):
    """Fill ``out`` with the squared distances between the rows of ``block``
    and the columns of ``Zt`` (the reference rows, transposed), summed over
    the features ``cols`` in the order ``np.add.reduce`` sums a contiguous
    axis of that length (numpy's pairwise summation): below 8 terms left to
    right; up to 128 terms in eight interleaved lanes combined pairwise, then
    the leftover terms left to right; above that, two halves split at a
    multiple of 8 and added. The result equals
    ``((block[:, None, cols] - Zt.T[None, :, cols]) ** 2).sum(axis=2)`` bit
    for bit. ``diff`` is scratch space of the shape of ``out``."""
    m = len(cols)
    if m > 128:
        half = m // 2 - (m // 2) % 8
        right = np.empty_like(out)
        _squared_distances(block, Zt, cols[:half], out, diff)
        out += _squared_distances(block, Zt, cols[half:], right, diff)
        return out

    def term(j, dest):
        # z - q rounds to exactly -(q - z), so its square is the same; a row
        # copy and an in-place subtraction beat an outer subtraction
        np.copyto(dest, Zt[j])
        dest -= block[:, j, None]
        dest *= dest
        return dest

    if m == 0:
        out.fill(0.0)
        return out
    if m < 8:
        full = 1
        term(cols[0], out)
    else:
        full = m - m % 8
        r = [out] + [np.empty_like(out) for _ in range(7)]
        for lane, j in zip(r, cols[:8]):
            term(j, lane)
        for i in range(8, full):
            r[i % 8] += term(cols[i], diff)
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), into r0 = out
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            r[a] += r[b]
    for j in cols[full:]:
        out += term(j, diff)
    return out


def _neighbour_blocks(Q: np.ndarray, Z: np.ndarray, k: int):
    """Brute-force k-nearest-neighbour search of the rows of ``Q`` among the
    rows of ``Z``: yields (row slice of ``Q``, indices into ``Z`` of each
    row's k nearest) chunk by chunk, holding ``_CHUNK_DISTANCES`` (2**16)
    distances at once. The squared distances are formed column by column and
    summed in numpy's order (see :func:`_squared_distances`), so they equal
    the broadcast ``((block[:, None] - Z[None]) ** 2).sum(axis=2)`` of
    row-major operands exactly, and ``argpartition`` returns the same
    indices, ties included."""
    n = len(Z)
    chunk = max(1, _CHUNK_DISTANCES // max(1, n))
    Zt = np.ascontiguousarray(Z.T)
    cols = range(Z.shape[1])
    d2 = np.empty((min(chunk, len(Q)), n))
    diff = np.empty_like(d2)
    for lo in range(0, len(Q), chunk):
        rows = min(chunk, len(Q) - lo)
        if k < n:
            _squared_distances(Q[lo : lo + rows], Zt, cols, d2[:rows], diff[:rows])
            idx = np.argpartition(d2[:rows], k - 1, axis=1)[:, :k]
        else:  # every reference row is a neighbour, in index order
            idx = np.broadcast_to(np.arange(n), (rows, n))
        yield slice(lo, lo + chunk), idx


class KnnMean:
    """k-nearest-neighbor conditional mean over standardized features.

    One-dimensional features use an exact sorted-window search; higher
    dimensions fall back to chunked brute force.
    """

    def __init__(self, features: np.ndarray, y: np.ndarray, k: int):
        Z = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if Z.shape[0] != len(y):
            Z = Z.T
        n, d = Z.shape
        _check_knn_k(k, n)
        self.k = int(k)
        self._mu = Z.mean(axis=0)
        sd = Z.std(axis=0)
        self._sd = np.where(sd > 0, sd, 1.0)
        self._Z = (Z - self._mu) / self._sd
        self._y = np.asarray(y, dtype=np.float64)
        self._d = d
        if d == 1:
            order = np.argsort(self._Z[:, 0], kind="stable")
            self._xs = self._Z[order, 0]
            self._prefix = np.concatenate([[0.0], np.cumsum(self._y[order])])

    def predict(self, features: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if Z.shape[1] != self._d:
            Z = Z.T
        Zs = (Z - self._mu) / self._sd
        if self._d == 1:
            return self._predict_sorted(Zs[:, 0])
        return self._predict_brute(Zs)

    def _predict_sorted(self, q: np.ndarray) -> np.ndarray:
        xs, k = self._xs, self.k
        n = len(xs)
        # window [i, i+k) of the k nearest is where xs[i] + xs[i+k-1] crosses 2q
        z = xs[: n - k + 1] + xs[k - 1 :]
        i0 = np.searchsorted(z, 2.0 * q, side="left")
        best = np.clip(i0, 0, n - k)
        alt = np.clip(i0 - 1, 0, n - k)
        span_best = np.maximum(q - xs[best], xs[best + k - 1] - q)
        span_alt = np.maximum(q - xs[alt], xs[alt + k - 1] - q)
        start = np.where(span_alt < span_best, alt, best)
        return (self._prefix[start + k] - self._prefix[start]) / k

    def _predict_brute(self, Zq: np.ndarray) -> np.ndarray:
        out = np.empty(len(Zq))
        for rows, idx in _neighbour_blocks(Zq, self._Z, self.k):
            out[rows] = self._y[idx].mean(axis=1)
        return out


# -- fitted nuisance objects ---------------------------------------------------


class NuisanceFit:
    """Common surface: what was fitted, how, with what smoothing parameters."""

    kind: str
    method: str

    def __init__(self, kind: str, method: str, params: dict, warnings=()):
        self.kind = kind
        self.method = method
        self.params = dict(params)
        self.warnings = tuple(warnings)


class ConditionalMeanFit(NuisanceFit):
    """Per-arm conditional mean of an outcome given features (treatment split)."""

    def __init__(self, kind, method, params, models, warnings=()):
        super().__init__(kind, method, params, warnings)
        self._models = models  # {0: predictor, 1: predictor}

    def evaluate(self, w, features) -> np.ndarray:
        w = np.asarray(w)
        F = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if F.shape[0] != len(w):
            F = F.T
        out = np.empty(len(w))
        for arm in (0, 1):
            m = w == arm
            if m.any():
                out[m] = self._models[arm].predict(F[m])
        return out


class ProbabilityFit(NuisanceFit):
    """Trimmed conditional probability of a binary flag given covariates;
    ``fitted_values`` holds it at the rows the fit was made on."""

    def __init__(self, kind, method, params, model, trim, raw, warnings=()):
        super().__init__(kind, method, params, warnings)
        self._model = model
        self.trim = float(trim)
        self.fitted_values = self._clip(raw)

    def _clip(self, p: np.ndarray) -> np.ndarray:
        return np.clip(p, self.trim, 1.0 - self.trim)

    def probability(self, features) -> np.ndarray:
        p = self._model.predict(np.atleast_2d(np.asarray(features, dtype=np.float64)))
        return self._clip(p)

    def odds(self, features) -> np.ndarray:
        p = self.probability(features)
        return p / (1.0 - p)


class DensityRatioFit(NuisanceFit):
    """Ratio of experimental to observational conditional frequencies of
    (treatment, secondary) given covariates; ``fitted_values`` holds it at
    the rows the fit was made on."""

    def __init__(self, kind, method, params, cells, ratios, bin_edges, warnings=()):
        super().__init__(kind, method, params, warnings)
        self._cells = cells  # CellTable over (treatment, covariates, secondary or its bin)
        self._ratios = ratios  # ratio per cell code
        self._bin_edges = bin_edges
        self.fitted_values = ratios[cells.codes]

    def ratio(self, w, features, s) -> np.ndarray:
        w = np.asarray(w)
        F = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if F.shape[0] != len(w):
            F = F.T
        s = np.asarray(s, dtype=np.float64)
        if self._bin_edges is not None:
            s = np.searchsorted(self._bin_edges, s, side="right").astype(np.float64)
        codes = self._cells.lookup(np.column_stack([w, F, s]))
        missing = np.flatnonzero(codes < 0)
        if len(missing):
            i = missing[0]
            raise PositivityError(
                f"observational cell (treatment={int(w[i])}, covariates={tuple(F[i].tolist())}, "
                f"secondary={s[i]:g}) has zero frequency"
            )
        return self._ratios[codes]


class SecondaryRankFit(NuisanceFit):
    """Right-continuous empirical conditional CDF of the secondary outcome in
    the experimental sample, within (treatment, covariate) cells."""

    def __init__(self, kind, method, params, cells, knn_state, warnings=()):
        super().__init__(kind, method, params, warnings)
        # frequency: (CellTable over (w, x), sorted secondary levels, sorted
        # cell-major keys code * (n_levels + 1) + level rank, cell starts, cell sizes)
        self._cells = cells
        self._knn = knn_state  # knn: {w: (standardized X, s values, mu, sd, k)}

    def evaluate(self, s, w, features) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        w = np.asarray(w)
        F = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if F.shape[0] != len(w):
            F = F.T
        if self.method == FREQUENCY:
            table, levels, keys, starts, sizes = self._cells
            codes = table.lookup(np.column_stack([w, F]))
            missing = np.flatnonzero(codes < 0)
            if len(missing):
                i = missing[0]
                raise PositivityError(
                    f"no experimental units in cell (treatment={int(w[i])}, "
                    f"covariates={tuple(F[i].tolist())})"
                )
            # keys below code * (n_levels + 1) + #levels <= s are the cell's values <= s
            query = codes * (len(levels) + 1) + np.searchsorted(levels, s, side="right")
            return (np.searchsorted(keys, query) - starts[codes]) / sizes[codes]
        out = np.empty(len(w))
        for arm in (0, 1):
            m = w == arm
            if not m.any():
                continue
            Z, sv, mu, sd, k = self._knn[arm]
            vals = np.empty(int(m.sum()))
            sq = s[m]
            for rows, idx in _neighbour_blocks((F[m] - mu) / sd, Z, k):
                vals[rows] = (sv[idx] <= sq[rows, None]).mean(axis=1)
            out[m] = vals
        return out


# -- fitting frontends ---------------------------------------------------------


def covariate_method(sample: CombinedSample) -> str:
    """Nuisance method for fits on covariates alone: exact cells when every
    covariate is categorical, kNN otherwise."""
    return FREQUENCY if sample.schema.all_covariates_categorical() else KNN


def _require_discrete_features(sample: CombinedSample, with_secondary: bool, what: str):
    if not sample.schema.all_covariates_categorical():
        raise ValidationError(f"{what} with the frequency method requires categorical covariates")
    if with_secondary and not sample.schema.secondary_discrete:
        raise ValidationError(
            f"{what} with the frequency method requires a discrete secondary outcome"
        )


def fit_primary_outcome_model(sample: CombinedSample, method: str = FREQUENCY,
                              k: int | None = None) -> ConditionalMeanFit:
    """Conditional mean of the primary outcome given (treatment, covariates,
    secondary), fitted on the observational sample."""
    mask = sample.mask(group="O")
    return _fit_conditional_mean(
        kind="primary_outcome_mean",
        w=sample.treatment[mask],
        features=np.column_stack([sample.covariates[mask], sample.secondary[mask]]),
        y=sample.primary[mask],
        method=method,
        k=k,
        discrete_check=lambda: _require_discrete_features(sample, True, "primary outcome model"),
    )


def fit_rank_outcome_model(sample: CombinedSample, ranks_o: np.ndarray,
                           method: str = FREQUENCY, k: int | None = None) -> ConditionalMeanFit:
    """Conditional mean of the primary outcome given (treatment, rank,
    covariates), fitted on the observational sample."""
    mask = sample.mask(group="O")
    return _fit_conditional_mean(
        kind="rank_outcome_mean",
        w=sample.treatment[mask],
        features=np.column_stack([sample.covariates[mask], np.asarray(ranks_o)]),
        y=sample.primary[mask],
        method=method,
        k=k,
        discrete_check=lambda: _require_discrete_features(sample, False, "rank outcome model"),
    )


def _fit_conditional_mean(kind, w, features, y, method, k, discrete_check):
    models = {}
    if method == FREQUENCY:
        discrete_check()
        for arm in (0, 1):
            m = w == arm
            models[arm] = FrequencyMean(features[m], y[m])
        params = {}
    elif method == KNN:
        for arm in (0, 1):
            m = w == arm
            arm_k = k if k is not None else default_knn_k(int(m.sum()))
            models[arm] = KnnMean(features[m], y[m], k=arm_k)
        params = {"k": k if k is not None else "ceil(n**0.8)"}
    else:
        raise ValidationError(f"unsupported method {method!r} for {kind}")
    return ConditionalMeanFit(kind, method, params, models)


def fit_selection_odds(sample: CombinedSample, method: str = FREQUENCY,
                       trim: float = 0.01, k: int | None = None) -> ProbabilityFit:
    """Probability of being observational given covariates, clamped to
    [trim, 1-trim] before forming odds."""
    if not 0.0 < trim < 0.5:
        raise ValidationError(f"trim must lie in (0, 0.5), got {trim}")
    flags = sample.group_obs.astype(np.float64)
    return _fit_probability(
        kind="selection_odds",
        features=sample.covariates,
        flags=flags,
        sample=sample,
        method=method,
        trim=trim,
        k=k,
        support_message="covariate cell present only in the experimental sample",
    )


def fit_propensity(sample: CombinedSample, group: str, method: str = FREQUENCY,
                   trim: float = 0.01, k: int | None = None) -> ProbabilityFit:
    """Probability of treatment given covariates, within one group."""
    if not 0.0 < trim < 0.5:
        raise ValidationError(f"trim must lie in (0, 0.5), got {trim}")
    mask = sample.mask(group=group)
    sub_features = sample.covariates[mask]
    flags = sample.treatment[mask].astype(np.float64)
    return _fit_probability(
        kind=f"propensity_{group}",
        features=sub_features,
        flags=flags,
        sample=sample,
        method=method,
        trim=trim,
        k=k,
        support_message=None,
    )


def _fit_probability(kind, features, flags, sample, method, trim, k, support_message):
    """``support_message``, when given, is raised for a covariate cell in which
    no unit carries the flag (frequency method only)."""
    warnings = []
    if method == FREQUENCY:
        if not sample.schema.all_covariates_categorical():
            raise ValidationError(f"{kind} with the frequency method requires categorical covariates")
        model = FrequencyMean(features, flags)
        if support_message is not None and features.shape[1] > 0:
            if (model.means == 0).any():
                raise PositivityError(f"{support_message} (common-support violation)")
    elif method == KNN:
        n = len(flags)
        model = KnnMean(features, flags, k=k if k is not None else default_knn_k(n))
    else:
        raise ValidationError(f"unsupported method {method!r} for {kind}")
    raw = model.predict(np.atleast_2d(np.asarray(features, dtype=np.float64)))
    n_clamped = int(np.sum((raw < trim) | (raw > 1.0 - trim)))
    if n_clamped:
        warnings.append(WarningRecord(
            code="probability_trimmed",
            message=f"{kind}: {n_clamped} fitted probabilities clamped to [{trim}, {1-trim}]",
            context={"n_clamped": n_clamped, "trim": trim},
        ))
    return ProbabilityFit(kind, method, {"trim": trim, "k": k}, model, trim, raw, warnings)


def fit_density_ratio(sample: CombinedSample, method: str = FREQUENCY,
                      bins: int = 20) -> DensityRatioFit:
    """Ratio of experimental to observational conditional frequencies of
    (treatment, secondary) given covariates, evaluable at observational units.

    Discrete data use exact cells; a continuous secondary outcome is grouped
    into equal-mass bins. Cells carrying experimental mass with no
    observational counterpart raise a positivity error; cells with no
    experimental mass get ratio 0 with a warning.
    """
    if not sample.schema.all_covariates_categorical():
        raise ValidationError("density ratio requires categorical (or no) covariates")
    if method == FREQUENCY:
        if not sample.schema.secondary_discrete:
            raise ValidationError(
                "density ratio with the frequency method requires a discrete secondary "
                "outcome; use method='binning' for continuous data"
            )
        edges = None
        svals = sample.secondary
    elif method == BINNING:
        if bins < 1:
            raise ValidationError("binning requires bins >= 1")
        qs = np.quantile(sample.secondary, np.arange(1, bins) / bins)
        edges = np.unique(qs)
        svals = np.searchsorted(edges, sample.secondary, side="right").astype(np.float64)
    else:
        raise ValidationError(f"unsupported method {method!r} for density ratio")

    X = sample.covariates
    obs = sample.group_obs
    cells = CellTable(np.column_stack([sample.treatment, X, svals]))
    c_e = np.bincount(cells.codes[~obs], minlength=cells.n_cells)
    c_o = np.bincount(cells.codes[obs], minlength=cells.n_cells)
    x_codes, n_x = cell_codes(X)
    x_e = np.bincount(x_codes[~obs], minlength=n_x)
    x_o = np.bincount(x_codes[obs], minlength=n_x)
    only_o = np.flatnonzero(x_e[x_codes] == 0)
    if len(only_o):
        raise PositivityError(
            f"covariate cell {tuple(X[only_o[0]].tolist())} present only in the "
            "observational sample"
        )
    only_e = np.flatnonzero(c_o[cells.codes] == 0)
    if len(only_e):
        i = only_e[0]
        raise PositivityError(
            f"experimental cell (treatment={int(sample.treatment[i])}, "
            f"covariates={tuple(X[i].tolist())}, secondary={svals[i]:g}) has no "
            "observational counterpart"
        )
    cell_x = np.empty(cells.n_cells, dtype=np.int64)
    cell_x[cells.codes] = x_codes
    # exact integer counts: the same divisions a per-cell loop would make
    ratios = (c_e / x_e[cell_x]) / (c_o / x_o[cell_x])
    warnings = []
    n_zero = int(np.sum(c_e == 0))
    if n_zero:
        warnings.append(WarningRecord(
            code="zero_experimental_cell",
            message=f"{n_zero} observational cells have no experimental counterpart; weight 0",
            context={"n_cells": n_zero},
        ))
    return DensityRatioFit("density_ratio", method, {"bins": bins if edges is not None else None},
                           cells, ratios, edges, warnings)


def fit_secondary_rank(sample: CombinedSample, method: str = FREQUENCY,
                       k: int | None = None) -> SecondaryRankFit:
    """Empirical conditional CDF of the secondary outcome in the experimental
    sample within (treatment, covariate) cells; continuous covariates use
    k-nearest-neighbor cells."""
    mask = sample.mask(group="E")
    w = sample.treatment[mask]
    X = sample.covariates[mask]
    s = sample.secondary[mask]
    if method == FREQUENCY:
        if not sample.schema.all_covariates_categorical():
            raise ValidationError(
                "rank fit with the frequency method requires categorical covariates"
            )
        table = CellTable(np.column_stack([w, X]))
        levels, level_rank = np.unique(s, return_inverse=True)
        keys = np.sort(table.codes * (len(levels) + 1) + level_rank)
        sizes = np.bincount(table.codes, minlength=table.n_cells)
        starts = np.cumsum(sizes) - sizes
        return SecondaryRankFit("secondary_rank_cdf", method, {},
                                (table, levels, keys, starts, sizes), None)
    if method == KNN:
        knn_state = {}
        for arm in (0, 1):
            m = w == arm
            Z = X[m]
            mu = Z.mean(axis=0) if Z.size else np.zeros(Z.shape[1])
            sd = Z.std(axis=0) if Z.size else np.ones(Z.shape[1])
            sd = np.where(sd > 0, sd, 1.0)
            arm_k = k if k is not None else default_knn_k(int(m.sum()))
            _check_knn_k(arm_k, int(m.sum()))
            knn_state[arm] = ((Z - mu) / sd, s[m], mu, sd, arm_k)
        return SecondaryRankFit("secondary_rank_cdf", method,
                                {"k": k if k is not None else "ceil(n**0.8)"}, None, knn_state)
    raise ValidationError(f"unsupported method {method!r} for rank fit")
