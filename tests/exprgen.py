"""Seeded random expression trees for the equivalence and closure tests."""

from __future__ import annotations

from cascade_logic.parser import And, Nand, Nor, Not, Or, Var, Xor

_NARY = {"and": And, "or": Or, "nand": Nand, "nor": Nor}
_FULL_KINDS = ("and", "or", "nand", "nor", "xor", "not")
_MONOTONE_KINDS = ("and", "or")


def _random_tree(rng, max_depth, names, kinds):
    if max_depth == 0 or rng.random() < 0.3:
        return Var(names[int(rng.integers(len(names)))])
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "not":
        return Not(_random_tree(rng, max_depth - 1, names, kinds))
    if kind == "xor":
        return Xor((_random_tree(rng, max_depth - 1, names, kinds),
                    _random_tree(rng, max_depth - 1, names, kinds)))
    fan_in = int(rng.integers(2, 5))
    args = tuple(_random_tree(rng, max_depth - 1, names, kinds)
                 for _ in range(fan_in))
    return _NARY[kind](args)


def random_expr(rng, max_depth=5, max_vars=6):
    names = [f"v{i}" for i in range(max_vars)]
    return _random_tree(rng, max_depth, names, _FULL_KINDS)


def random_monotone_expr(rng, max_depth=5, max_vars=6):
    names = [f"v{i}" for i in range(max_vars)]
    return _random_tree(rng, max_depth, names, _MONOTONE_KINDS)
