"""Reference code that only the tests use.

The primitive autodiff ops here are the graphs the fused nodes of
``molseq.autodiff`` replace; ``TestFusedMatchesComposed`` builds each fused
node's unfused counterpart from them and checks that both agree bit for
bit.  They reuse the private forward and backward helpers of the fused
nodes, so both sides run the same arithmetic.

``canonical_ranks`` exposes the per-atom ranks that ``canonicalize``
computes on the way to a canonical SMILES, for the golden rank tests.

``reference_parse`` is the SMILES parser that the one-pass reader
``molseq.smiles.parse`` replaced: it lexes the whole string with
``tokenize`` first and then walks the token texts, classifying each by the
``_TOKEN_RE`` group it matches.  It collects the bonds as ``(a, b, code)``
in source order and hands them to ``adjacency``, which builds the
``Molecule`` record's ``adj``: each bond at both of its atoms, in the
order the bonds were read.  The differential tests hold ``parse`` and
``canonical_smiles`` to its outcomes, errors included.

``reference_read_lines`` is the text-file reader that ``molseq.files``
replaced with one loop over the file's lines: it decodes the whole file,
turns "\r\n" and then "\r" into "\n" and splits there.  A Hypothesis test
holds ``files.read_lines`` and ``files.iter_lines`` to its lines and
errors.
"""

from __future__ import annotations

import numpy as np

from molseq.autodiff import (
    Tensor,
    _as_tensor,
    _check_broadcast,
    _l2_normalize,
    _l2_normalize_bwd,
    _log_softmax_rows,
    _log_softmax_rows_bwd,
    _node,
    _require_2d,
    _sq_dists,
    _sq_dists_bwd,
    _unbroadcast,
)
from molseq.errors import ConfigError, ShapeMismatch
from molseq.smiles import (
    _AROMATIC,
    _ATOM,
    _BOND,
    _BRACKET_ATOM,
    _BRACKET_RE,
    _BRANCH_CLOSE,
    _BRANCH_OPEN,
    _DOT,
    _RING_BOND,
    _TOKEN_RE,
    Molecule,
    SmilesError,
    StereoUnsupported,
    UnclosedBranch,
    UnexpectedCharacter,
    UnmatchedRingBond,
    _atom_token,
    _fragments,
    _morgan_ranks,
    tokenize,
)

_BOND_ORDER = {"-": 1, "=": 2, "#": 3, ":": 4}  # bond codes
_SINGLE, _AROMATIC_BOND = _BOND_ORDER["-"], _BOND_ORDER[":"]


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("sub", a, b)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node("sub", a.data - b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("mul", a, b)

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node("mul", a.data * b.data, (a, b), bwd)


def exp(x) -> Tensor:
    x = _as_tensor(x)
    e = np.exp(x.data)
    return _node("exp", e, (x,), lambda g: (g * e,), check_finite=True)


def row_log_softmax(x) -> Tensor:
    x = _as_tensor(x)
    _require_2d("row_log_softmax", x)
    out, soft = _log_softmax_rows(x.data)
    return _node("row_log_softmax", out, (x,), lambda g: (_log_softmax_rows_bwd(g, soft),))


def sum_axis(x, axis: int) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2 or axis not in (0, 1):
        raise ShapeMismatch("sum", (x.shape,))

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _node("sum", x.data.sum(axis=axis), (x,), bwd)


def mean(x, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    if axis is None:
        n = x.data.size
        return _node("mean", x.data.mean(), (x,), lambda g: (np.broadcast_to(g / n, x.shape).copy(),))
    if x.data.ndim != 2 or axis not in (0, 1):
        raise ShapeMismatch("mean", (x.shape,))
    n = x.shape[axis]

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g / n, axis), x.shape).copy(),)

    return _node("mean", x.data.mean(axis=axis), (x,), bwd)


def l2_normalize_rows(x) -> Tensor:
    x = _as_tensor(x)
    _require_2d("l2_normalize_rows", x)
    y, safe, guarded = _l2_normalize(x.data)
    out = _node("l2_normalize_rows", y, (x,), lambda g: (_l2_normalize_bwd(g, y, safe, guarded),),
                check_finite=True)
    out.guarded_rows = tuple(int(i) for i in np.flatnonzero(guarded))
    return out


def pairwise_sq_dists(x, y) -> Tensor:
    """Squared Euclidean distances between the rows of x [m,d] and y [n,d]."""
    x, y = _as_tensor(x), _as_tensor(y)
    if x.data.ndim != 2 or y.data.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeMismatch("pairwise_sq_dists", (x.shape, y.shape))
    out, mask = _sq_dists(x.data, y.data)
    return _node("pairwise_sq_dists", out, (x, y), lambda g: _sq_dists_bwd(g, x.data, y.data, mask),
                 check_finite=True)


def scale(x, s: float) -> Tensor:
    x = _as_tensor(x)
    s = float(s)
    return _node("scale", x.data * s, (x,), lambda g: (g * s,))


def transpose(x) -> Tensor:
    x = _as_tensor(x)
    _require_2d("transpose", x)
    return _node("transpose", x.data.T.copy(), (x,), lambda g: (g.T.copy(),))


def canonical_ranks(mol: Molecule) -> list[int]:
    """Per-atom refined ranks (dense within each fragment)."""
    out = [0] * len(mol.tokens)
    for frag in _fragments(mol.adj):
        for a, r in zip(frag, _morgan_ranks(mol.invariants, frag, mol.adj)):
            out[a] = r
    return out


def _reference_bracket(text: str, position: int) -> tuple[str, bool, int, int]:
    """Decode one '[...]' token into an atom invariant (element, aromatic, charge, H count)."""
    body = text[1:-1]
    if "@" in body:
        raise StereoUnsupported("chirality '@' in bracket atom", position)
    if body[:1].isdigit():
        raise StereoUnsupported("isotope label in bracket atom", position)
    m = _BRACKET_RE.match(body)
    if m is None:
        raise UnexpectedCharacter(position + 1, body[:1])
    if m.end() != len(body):
        raise UnexpectedCharacter(position + 1 + m.end(), body[m.end()])
    symbol, h_digits, sign, count = m.groups()
    charge = 0
    if sign:
        charge = int(count) if count.isdigit() else len(count) + 1  # "+3", or "+" repeated
        if sign == "-":
            charge = -charge
    aromatic = symbol.islower()
    h_count = 0 if h_digits is None else int(h_digits or 1)
    return symbol.upper() if aromatic else symbol, aromatic, charge, h_count


def adjacency(n: int, bonds) -> list[list[tuple[int, int]]]:
    """Each of ``n`` atoms' (neighbor, bond code) pairs, from (a, b, code) bonds, in bond order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, code in bonds:
        adj[a].append((b, code))
        adj[b].append((a, code))
    return adj


def reference_parse(smiles: str) -> Molecule:
    """Tokenize the whole string, then walk the tokens: the parser that the one-pass ``parse`` replaced."""
    atoms: list[tuple[str, bool, int, int]] = []
    bonds: list[tuple[int, int, int]] = []
    pairs: set[tuple[int, int]] = set()
    anchor: int | None = None
    pending: int | None = None
    branch_stack: list[int | None] = []
    open_rings: dict[int, tuple[int, int | None]] = {}

    tok_pos = 0
    for text in tokenize(smiles):
        kind = _TOKEN_RE.match(text).lastindex
        if kind == _ATOM or kind == _BRACKET_ATOM:
            if kind == _ATOM:
                aromatic = text in _AROMATIC
                atom = (text.upper() if aromatic else text, aromatic, 0, -1)
            else:
                atom = _reference_bracket(text, tok_pos)
            idx = len(atoms)
            atoms.append(atom)
            if anchor is not None:
                if pending is None:
                    pending = _AROMATIC_BOND if atom[1] and atoms[anchor][1] else _SINGLE
                # A chain bond always reaches a new atom, so it is never a duplicate.
                bonds.append((anchor, idx, pending))
                pairs.add((anchor, idx))
            anchor = idx
            pending = None
        elif kind == _BOND:
            if text in "/\\":
                raise StereoUnsupported(f"directional bond {text!r}", tok_pos)
            if anchor is None or pending is not None:
                raise SmilesError("bond symbol without a preceding atom", tok_pos)
            pending = _BOND_ORDER[text]
        elif kind == _RING_BOND:
            digit = int(text[1:]) if text[0] == "%" else int(text)
            if anchor is None:
                raise SmilesError("ring bond digit before any atom", tok_pos)
            if digit in open_rings:
                other, other_order = open_rings.pop(digit)
                if other == anchor:
                    raise UnmatchedRingBond(digit, f"ring bond {digit} closes on its own atom")
                if pending is not None and other_order is not None and pending != other_order:
                    raise UnmatchedRingBond(digit, f"ring bond {digit} has conflicting bond orders")
                order = pending or other_order
                if order is None:
                    order = _AROMATIC_BOND if atoms[other][1] and atoms[anchor][1] else _SINGLE
                if (min(other, anchor), max(other, anchor)) in pairs:
                    raise SmilesError(f"duplicate bond between atoms {other} and {anchor}")
                bonds.append((other, anchor, order))
                pairs.add((min(other, anchor), max(other, anchor)))
            else:
                open_rings[digit] = (anchor, pending)
            pending = None
        elif kind == _BRANCH_OPEN:
            if anchor is None or pending is not None:
                raise SmilesError("branch must follow an atom", tok_pos)
            branch_stack.append(anchor)
        elif kind == _BRANCH_CLOSE:
            if not branch_stack:
                raise UnclosedBranch("branch close without matching open")
            if pending is not None:
                raise SmilesError("dangling bond before branch close", tok_pos)
            anchor = branch_stack.pop()
        elif kind == _DOT:
            if pending is not None:
                raise SmilesError("dangling bond before fragment separator", tok_pos)
            anchor = None
        tok_pos += len(text)

    if pending is not None:
        raise SmilesError("dangling bond at end of input")
    if open_rings:
        raise UnmatchedRingBond(min(open_rings))
    if branch_stack:
        raise UnclosedBranch()
    return Molecule(atoms, [_atom_token(*atom) for atom in atoms], adjacency(len(atoms), bonds))


def reference_read_lines(raw: bytes, name, error=None) -> list[str]:
    """The lines of the UTF-8 ``raw``, ended by "\n", "\r\n" or "\r", without the empty one a final line end
    leaves; a byte that is not UTF-8 raises ``error(line, detail)``, by default a ``ConfigError`` naming ``name``."""
    split = lambda text: text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    try:
        lines = split(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        lineno = len(split(raw[:exc.start].decode("utf-8")))
        detail = f"byte 0x{raw[exc.start]:02x} is not UTF-8"
        raise (error(lineno, detail) if error else ConfigError(f"{detail} ({name} line {lineno})")) from None
    return lines[:-1] if lines[-1] == "" else lines
