"""Shipped example models, expressed as config dictionaries.

Each preset states its model and run options; parsing fills in the
default dynamics options, as for any config that omits them. The CLI accepts
``{"preset": "<name>"}`` (optionally with overriding keys) anywhere it
accepts an explicit model. All matrices here are real, so the [re, im]
pairs carry zero imaginary parts.

  two-state-rabi   resonant two-level flip: H = (omega/2) sigma_x with the
                   sigma_z beable, the exactly solvable workhorse
  two-qubit        two commuting single-qubit beables under an entangling
                   Hamiltonian; exercises L = 2 ordering symmetrization
  number-operator  driven truncated oscillator with the number operator as
                   beable (8 cells); exercises multi-cell hopping
  pair-toy         two fermionic modes with pair creation/annihilation plus
                   a weak single-mode drive; the total occupation beable has
                   a doubly degenerate middle cell
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError


def _pairs(matrix) -> list:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _two_state_rabi() -> dict:
    omega = 1.0
    h = 0.5 * omega * np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    return {
        "dimension": 2,
        "hamiltonian": _pairs(h),
        "beables": [{"label": "sz", "matrix": _pairs(sz)}],
        "initial_state": _pairs(np.array([1.0, 0.0])),
        "run": {
            "t_final": 2.5,
            "output_dt": 0.05,
            "n_trajectories": 1000,
            "seed": 7,
            "times": [math.pi / 4, math.pi / 2, 3 * math.pi / 4],
        },
    }


def _two_qubit() -> dict:
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    eye = np.eye(2)
    h = (0.5 * np.kron(sx, sx)
         + 0.3 * (np.kron(sx, eye) + np.kron(eye, sx))
         + 0.15 * np.kron(sz, eye)
         - 0.22 * np.kron(eye, sz))
    state = np.zeros(4)
    state[0] = 1.0
    return {
        "dimension": 4,
        "hamiltonian": _pairs(h),
        "beables": [
            {"label": "sz_a", "matrix": _pairs(np.kron(sz, eye))},
            {"label": "sz_b", "matrix": _pairs(np.kron(eye, sz))},
        ],
        "initial_state": _pairs(state),
        "run": {
            "t_final": 2 * math.pi,
            "output_dt": 0.05,
            "n_trajectories": 1000,
            "seed": 11,
            "times": [math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi],
        },
    }


def _number_operator(dim: int = 8) -> dict:
    number = np.diag(np.arange(float(dim)))
    lower = np.zeros((dim, dim))
    for n in range(1, dim):
        lower[n - 1, n] = math.sqrt(n)
    h = number + 0.8 * (lower + lower.T)
    state = np.zeros(dim)
    state[0] = 1.0
    return {
        "dimension": dim,
        "hamiltonian": _pairs(h),
        "beables": [{"label": "n", "matrix": _pairs(number)}],
        "initial_state": _pairs(state),
        "run": {
            "t_final": 2 * math.pi,
            "output_dt": 0.05,
            "n_trajectories": 1000,
            "seed": 13,
            "times": [1.0, 2.2, 3.5, 5.0],
        },
    }


def _pair_toy() -> dict:
    # occupation basis |00>, |01>, |10>, |11>; the beable is n1 + n2, whose
    # eigenvalue 1 is doubly degenerate (one rank-2 middle cell)
    total_number = np.diag([0.0, 1.0, 1.0, 2.0])
    h = 0.45 * total_number
    h[3, 0] = h[0, 3] = 1.0          # pair creation/annihilation
    h[2, 0] = h[0, 2] = 0.3          # weak single-mode drive keeps the
    h[3, 1] = h[1, 3] = 0.3          # middle cell populated
    state = np.zeros(4)
    state[0] = 1.0
    return {
        "dimension": 4,
        "hamiltonian": _pairs(h),
        "beables": [{"label": "n_total", "matrix": _pairs(total_number)}],
        "initial_state": _pairs(state),
        "run": {
            "t_final": 2 * math.pi,
            "output_dt": 0.05,
            "n_trajectories": 1000,
            "seed": 17,
            "times": [1.0, 2.5, 4.0, 5.5],
        },
    }


_BUILDERS = {
    "two-state-rabi": _two_state_rabi,
    "two-qubit": _two_qubit,
    "number-operator": _number_operator,
    "pair-toy": _pair_toy,
}

PRESET_NAMES = tuple(sorted(_BUILDERS))


def preset_config(name: str) -> dict:
    """A fresh config dict for a shipped preset."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise InputError(
            f"unknown preset '{name}'; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return builder()
