"""Chebyshev tables in time of a velocity field's forms, for the ensemble path.

A cell tuple's forms at t (P, X_ell and Y_ell, see dynamics.VelocityField)
are real quadratic forms in the state coefficients coeff0 exp(m_e (t - t0))
(the field checks each tuple's operators for Hermiticity when it builds
them): trigonometric polynomials in t whose frequencies are energy
differences, at most E_max - E_min. FormTables cuts a span into panels of
width w with (E_max - E_min) w <= _PANEL_PHASE and interpolates every form
of each visited tuple on each panel at the _CHEB_NODES Chebyshev points. In
the panel's coordinate x in [-1, 1] a frequency turns the phase by at most
0.4 per unit of x, so the degree-11 interpolant is within about
2 J_12(0.4) ~ 2e-17 of the form's size and roundoff dominates (Trefethen,
Approximation Theory and Approximation Practice, SIAM 2013, ch. 8).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericError

if TYPE_CHECKING:
    from .dynamics import VelocityField

# degree _CHEB_NODES - 1 on panels of width w with (E_max - E_min) w <=
# _PANEL_PHASE, filled _WINDOW_PANELS panels per _forms call, at most
# _TABLE_PANELS panels kept
_CHEB_NODES = 12
_PANEL_PHASE = 0.8
_WINDOW_PANELS = 8
_TABLE_PANELS = 4096
# (cell tuple, window) pairs a block may index: 128 MiB of mostly untouched
# zero pages at most
_TABLE_KEYS = 2 ** 24


class FormTables:
    """Chebyshev tables in time of the forms of the cell tuples that the
    rows of one ensemble block visit, over the span from t0 to t_end.

    Panels are filled _WINDOW_PANELS at a time, from one _forms call at the
    nodes of the window, when a row first needs one; a panel's table is
    therefore a function of the tuple, the panel and the span only, not of
    the rows that visit it or of the block. Beyond _TABLE_PANELS panels the
    tables are dropped and refilled as needed, bit for bit, so that a long
    span keeps only the windows its rows are in. A span and a model with
    more than _TABLE_KEYS (cell tuple, window) pairs raise NumericError.

    A table row (one panel of one tuple) holds the coefficients
    (_CHEB_NODES, 2L + 1) of the forms, which are real: the field checks a
    tuple's operators once, when it builds them.
    """

    def __init__(self, field: VelocityField, coeff0: np.ndarray, t0: float, t_end: float):
        self.field = field
        self.coeff0 = coeff0
        self.m_e = -1j * field._energies
        self.t0 = t0
        self.sgn = -1.0 if t_end < t0 else 1.0
        self.span = abs(t_end - t0)
        e = field._energies
        spread = float(e.max() - e.min()) if e.size else 0.0
        self.n_panels = max(1, math.ceil(spread * self.span / _PANEL_PHASE))
        self.width = self.span / self.n_panels
        self.n_windows = -(-self.n_panels // _WINDOW_PANELS)
        n_keys = self.n_windows * math.prod(field.beable_set.cell_counts)
        if n_keys > _TABLE_KEYS:
            raise NumericError(f"the span from t = {t0:.12g} to {t_end:.12g} needs "
                               f"{self.n_panels} panels per cell tuple, too many to tabulate")
        # node times may pass the span's end by the rounding of t + c h
        self.slack = 16.0 * math.ulp(max(abs(t0), abs(t_end)))
        k = np.arange(_CHEB_NODES)
        angles = np.pi * np.outer(k, k + 0.5) / _CHEB_NODES
        self.node_frac = 0.5 * (np.cos(angles[1]) + 1.0)   # nodes as panel fractions
        # values -> coefficients, complex so that the product runs the complex
        # GEMM that _forms also runs: a process's first real GEMM costs it
        # about 0.25 MB of resident memory (OpenBLAS 0.3.31, x86_64)
        self.fit = (2.0 / _CHEB_NODES) * np.cos(angles).astype(complex)
        self.fit[0] *= 0.5
        self.coef = np.empty((_CHEB_NODES, 0, 2 * field.n_beables + 1))
        # 1 + the first table row of each (code, window) key, 0 if not filled
        self._first_row = np.zeros(n_keys, dtype=np.intp)
        self._filled = []
        self._used = 0

    def locate(self, codes: np.ndarray, times: np.ndarray):
        """Table rows and panel coordinates x of rows of tuple codes (m,)
        (row-major codes of the cells) at times (m, S), filling the windows
        they need. A time outside the span by more than the slack raises."""
        s = (times - self.t0) * self.sgn
        if s.size and (s.min() < -self.slack or s.max() > self.span + self.slack):
            bad = times.flat[np.argmax(np.maximum(-s, s - self.span))]
            raise NumericError(f"node time {bad:.17g} lies outside the tabulated span "
                               f"from {self.t0:.17g} to {self.t0 + self.sgn * self.span:.17g}")
        pos = s / self.width if self.width > 0 else np.zeros_like(s)
        panel = np.minimum(np.maximum(pos, 0.0).astype(np.intp), self.n_panels - 1)
        x = 2.0 * (pos - panel) - 1.0
        window = panel // _WINDOW_PANELS
        keys = codes[:, None] * self.n_windows + window
        first = self._first_row[keys]
        if not first.all():
            missing = set(keys[first == 0].tolist())
            if self._used + len(missing) * _WINDOW_PANELS > _TABLE_PANELS:
                self._first_row[self._filled] = 0
                self._filled.clear()
                self._used = 0
                missing = set(keys.ravel().tolist())
            for key in missing:
                self._fill(key)
            first = self._first_row[keys]
        return first - 1 + panel - window * _WINDOW_PANELS, x

    def _fill(self, key: int):
        code, window = divmod(key, self.n_windows)
        cells = tuple(int(c) for c in np.unravel_index(code, self.field.beable_set.cell_counts))
        panels = np.arange(window * _WINDOW_PANELS,
                           min((window + 1) * _WINDOW_PANELS, self.n_panels))
        times = self.t0 + self.sgn * self.width * (panels[:, None] + self.node_frac).ravel()
        vals = self.field._forms(self.coeff0 * np.exp(self.m_e * (times - self.t0)[:, None]),
                                 cells)[0]
        # coefficient-major, coef[k, panel] = c_k of every form, from one GEMM
        vals = vals.reshape(panels.size, _CHEB_NODES, -1).transpose(1, 0, 2)
        coef = (self.fit @ vals.reshape(_CHEB_NODES, -1)).real.reshape(vals.shape)
        lo, hi = self._used, self._used + panels.size
        if hi > self.coef.shape[1]:
            grown = np.empty((_CHEB_NODES, max(2 * self.coef.shape[1], hi), coef.shape[2]))
            grown[:, :lo] = self.coef[:, :lo]
            self.coef = grown
        self.coef[:, lo:hi] = coef
        self._first_row[key] = lo + 1
        self._filled.append(key)
        self._used = hi

    def evaluate(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Sum_k c_k T_k(x) at table rows and coordinates x, both (n,): forms
        (n, 2L + 1). Row by row: the recurrence and the sum are elementwise,
        in the order of k, and each c_k is gathered on its own, (n, 2L + 1)
        at a time."""
        table = self.coef
        out = table[0].take(rows, axis=0)
        out += x[:, None] * table[1].take(rows, axis=0)
        t_prev, t_k = np.ones_like(x), x
        for k in range(2, _CHEB_NODES):
            t_prev, t_k = t_k, 2.0 * x * t_k - t_prev
            out += t_k[:, None] * table[k].take(rows, axis=0)
        return out
