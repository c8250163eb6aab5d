"""The Inverse Helmholtz operator (paper Fig. 1 / Eq. 1a-1c).

The paper evaluates with "polynomial degree equal to p = 11", writing the
tensors as ``[11 11 11]`` (Fig. 1); we parameterize on the extent ``n`` (the
number of nodes per dimension), with ``n = 11`` reproducing the paper.

    t_ijk = sum_lmn  S_il S_jm S_kn u_lmn     (1a; S^T contractions)
    r_ijk = D_ijk * t_ijk                     (1b; Hadamard)
    v_ijk = sum_lmn  S_li S_mj S_nk r_lmn     (1c)
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.cfdlang import Program, ProgramBuilder

#: Verbatim DSL source of the paper's Fig. 1.
HELMHOLTZ_DSL = """\
var input  S : [11 11]
var input  D : [11 11 11]
var input  u : [11 11 11]
var output v : [11 11 11]

var t : [11 11 11]
var r : [11 11 11]

t = S # S # S # u . [[1 6] [3 7] [5 8]]
r = D * t
v = S # S # S # r . [[0 6] [2 7] [4 8]]
"""


def inverse_helmholtz_source(n: int = 11) -> str:
    """DSL source for extent ``n`` (n = 11 reproduces Fig. 1)."""
    return HELMHOLTZ_DSL.replace("11", str(n)) if n != 11 else HELMHOLTZ_DSL


def inverse_helmholtz_program(n: int = 11) -> Program:
    """Parsed + analyzed Inverse Helmholtz program.

    Built programmatically so arbitrary ``n`` works; for ``n = 11`` the
    result round-trips with :data:`HELMHOLTZ_DSL` (tested).
    """
    b = ProgramBuilder()
    S = b.input("S", (n, n))
    D = b.input("D", (n, n, n))
    u = b.input("u", (n, n, n))
    v = b.output("v", (n, n, n))
    t = b.local("t", (n, n, n))
    r = b.local("r", (n, n, n))
    b.assign(t, b.contract(b.outer(S, S, S, u), [(1, 6), (3, 7), (5, 8)]))
    b.assign(r, b.hadamard(D, t))
    b.assign(v, b.contract(b.outer(S, S, S, r), [(0, 6), (2, 7), (4, 8)]))
    return b.build()


def reference_inverse_helmholtz(
    S: np.ndarray, D: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Golden NumPy implementation straight from Eq. 1a-1c."""
    t = np.einsum("il,jm,kn,lmn->ijk", S, S, S, u)
    r = D * t
    return np.einsum("li,mj,nk,lmn->ijk", S, S, S, r)


def make_element_data(
    n: int = 11, seed: int = 2021, n_elements: int = 1
) -> Dict[str, np.ndarray]:
    """Synthetic per-element data (substitute for the paper's CFD traces).

    ``S`` mimics a spectral operator matrix (dense, well-conditioned);
    ``D`` a positive diagonal factor field; ``u`` a smooth-ish state.
    Values do not affect timing/resources, only functional checks.
    """
    rng = np.random.default_rng(seed)
    data: Dict[str, np.ndarray] = {
        "S": rng.standard_normal((n, n)) / np.sqrt(n) + np.eye(n),
        "D": 0.5 + rng.random((n, n, n)),
    }
    if n_elements == 1:
        data["u"] = rng.standard_normal((n, n, n))
    else:
        data["u"] = rng.standard_normal((n_elements, n, n, n))
    return data
