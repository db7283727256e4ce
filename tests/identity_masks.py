"""Batched identities of the obstruction calculus, mod p in numpy, for
the tests: the comultiplication identity of the obstructions, the defect
identity, and the annihilation criterion, on blocks of operators laid out
as deq.classify lays out its candidates."""

import numpy as np

from deq.classify import _rows_equal, _words, block_matrices
from deq.tensor_ops import EQUATIONS


def obstruction_block(x: np.ndarray, p: int) -> np.ndarray:
    """o(i,j,k,l) for a block, shape (N, n, n, n, n, n^2)."""
    n = x.shape[1]
    count = x.shape[0]
    eye = np.eye(n, dtype=np.int64)
    term1 = np.einsum('nkvji,lw->nijklvw', x, eye).reshape(
        count, n, n, n, n, n * n)
    term2 = np.einsum('nklja,vi->nijklva', x, eye).reshape(
        count, n, n, n, n, n * n)
    return (term1 - term2) % p


def action_block(x: np.ndarray) -> np.ndarray:
    """Generator action matrices, shape (N, n^2, n, n): A[c_ju][i][v]."""
    count, n = x.shape[0], x.shape[1]
    return x.transpose(0, 3, 1, 4, 2).reshape(count, n * n, n, n)


def delta_identity_mask(x: np.ndarray, p: int) -> np.ndarray:
    """Comultiplication identity for obstructions, vectorized; true rows
    satisfy it (expected: all, for every R)."""
    n = x.shape[1]
    d = n * n
    obs = obstruction_block(x, p)
    mu = np.zeros((d, d, d), dtype=np.int64)
    for j in range(n):
        for k in range(n):
            for u in range(n):
                mu[j * n + k][j * n + u][u * n + k] = 1
    left = np.einsum('nijklm,mbc->nijklbc', obs, mu) % p
    e1 = np.zeros((n, n, d), dtype=np.int64)
    e2 = np.zeros((n, n, d), dtype=np.int64)
    for u in range(n):
        for l in range(n):
            e1[u, l, u * n + l] = 1
            e2[l, u, l * n + u] = 1
    rhs = np.einsum('nijkub,ulc->nijklbc', obs, e1)
    rhs = rhs + np.einsum('iub,nujklc->nijklbc', e2, obs)
    return _rows_equal(left, rhs % p)


def defect_identity_mask(x: np.ndarray, p: int) -> np.ndarray:
    """Second defect identity (R23 R12 - R12 R23 against acting obstructions),
    vectorized; true rows satisfy it (expected: all, for every R)."""
    count, n = x.shape[0], x.shape[1]
    r12r23, r23r12 = _words(block_matrices(x), p, *EQUATIONS["d"])
    lhs = ((r23r12 - r12r23) % p).reshape(count, n, n, n, n, n, n)
    obs = obstruction_block(x, p)
    act = action_block(x)
    return _rows_equal(lhs, np.einsum('nrsjkm,nmxw->nxrswkj', obs, act) % p)


def annihilation_mask(x: np.ndarray, p: int) -> np.ndarray:
    """True where every obstruction acts as zero."""
    obs = obstruction_block(x, p)
    act = action_block(x)
    return _rows_equal(np.einsum('nijklm,nmxw->nijklxw', obs, act) % p, 0)


def random_block(n: int, p: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, p, size=(count, n, n, n, n), dtype=np.int64)
