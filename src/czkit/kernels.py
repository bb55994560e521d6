"""Smooth homogeneous convolution kernels K(x) = W(x)/|x|^(n+d).

A kernel is described by the finite list of harmonic layers of its
numerator: the restriction of the numerator to the unit sphere expands as
a finite sum of homogeneous harmonic polynomials, and that list (plus the
dimension) is the whole specification.  The standing hypothesis, zero mean
on the sphere, is one exact check on that list: every layer of positive
degree has mean zero there, so the mean is the degree-0 layer, and a
kernel with one is refused.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .polyalg import (
    HarmonicComponent,
    MultiPoly,
    ParseError,
    harmonic_decompose,
    poly_from_text,
)


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class KernelSpec:
    """Dimension, harmonic components, and derived parity of a kernel."""

    dim: int
    components: tuple[HarmonicComponent, ...]
    parity: str

    @staticmethod
    def from_components(dim: int, components: Sequence[HarmonicComponent]) -> "KernelSpec":
        if dim < 2:
            raise KernelError("dimension must be >= 2")
        if not components:
            raise KernelError("kernel must have at least one component")
        comps = tuple(sorted(components, key=lambda c: c.degree))
        degrees = [c.degree for c in comps]
        if len(set(degrees)) != len(degrees):
            raise KernelError("duplicate component degrees")
        if degrees[0] == 0:
            (mean,) = comps[0].poly.terms.values()
            raise KernelError(f"nonzero sphere mean: {mean}")
        for c in comps:
            if c.poly.nvars != dim:
                raise KernelError("component variable count does not match the dimension")
        if all(d % 2 == 1 for d in degrees):
            parity = "odd"
        elif all(d % 2 == 0 for d in degrees):
            parity = "even"
        else:
            parity = "mixed"
        return KernelSpec(dim, comps, parity)


def kernel_from_polynomial(dim: int, w: MultiPoly) -> KernelSpec:
    """Build a KernelSpec from a homogeneous numerator polynomial W.

    W must be homogeneous with exactly zero mean on the unit sphere; the
    components are its harmonic layers, which reproduce W on |x| = 1.
    A nonzero mean is W's constant layer, which `KernelSpec.from_components`
    refuses, reporting its exact value.
    """
    if w.nvars != dim:
        raise KernelError("polynomial variable count does not match the dimension")
    if w.is_zero():
        raise KernelError("zero polynomial")
    if not w.is_homogeneous():
        raise KernelError("numerator must be homogeneous")
    comps = [HarmonicComponent(h.homogeneous_degree(), h) for _, h in harmonic_decompose(w)]
    return KernelSpec.from_components(dim, comps)


def parse_kernel_spec(text: str) -> KernelSpec:
    """Kernel file format: a `dim n` line, then the polynomial text format.

    A fault in one line raises ParseError with that line's number in text;
    a fault of the kernel as a whole raises KernelError.
    """
    dim = None
    lines = text.splitlines()
    for n, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line.lower().startswith("dim"):
            continue
        if dim is not None:
            raise ParseError(n, "duplicate dim line")
        try:
            dim = int(line.split()[1])
        except (IndexError, ValueError):
            dim = 0
        if dim < 2:
            raise ParseError(n, f"expected `dim n` with an integer n >= 2, got {line!r}")
        lines[n - 1] = ""  # blanked, so the term parser keeps the file's line numbers
    if dim is None:
        raise KernelError("missing `dim n` line")
    w = poly_from_text("\n".join(lines), dim)
    return kernel_from_polynomial(dim, w)


def load_kernel_spec(path: str) -> KernelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kernel_spec(fh.read())
