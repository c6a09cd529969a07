"""SMILES tokenizing, parsing, canonicalization and vocabulary building.

The dialect covered here is the organic subset plus bracket atoms with
charge and explicit hydrogen counts.  Stereo markers and isotopes are
rejected outright (StereoUnsupported) instead of being stripped, and no
valence or aromaticity perception is attempted: a molecule is exactly the
graph its SMILES spells out.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "TokenKind",
    "Token",
    "BondOrder",
    "Atom",
    "Bond",
    "MolGraph",
    "Vocabulary",
    "SmilesError",
    "UnexpectedCharacter",
    "UnterminatedBracket",
    "UnclosedBranch",
    "UnmatchedRingBond",
    "StereoUnsupported",
    "tokenize",
    "parse",
    "canonicalize",
    "canonical_smiles",
    "build_vocabulary",
    "encode_tokens",
    "write_smiles",
    "random_smiles",
    "permute_atoms",
    "PAD_ID",
    "UNK_ID",
    "PAD_TOKEN",
    "UNK_TOKEN",
]

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_TWO_LETTER = ("Cl", "Br")
_ORGANIC = set("BCNOPSFI")
_AROMATIC = set("bcnops")


class SmilesError(ValueError):
    """Base class for every tokenize/parse failure."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        self.corpus_index: int | None = None
        super().__init__(message)

    def __str__(self) -> str:
        msg = self.args[0]
        if self.position is not None:
            msg = f"{msg} (column {self.position})"
        if self.corpus_index is not None:
            msg = f"corpus entry {self.corpus_index}: {msg}"
        return msg


class UnexpectedCharacter(SmilesError):
    def __init__(self, position: int, char: str = "") -> None:
        label = f"unexpected character {char!r}" if char else "unexpected character"
        super().__init__(label, position)


class UnterminatedBracket(SmilesError):
    def __init__(self, position: int) -> None:
        super().__init__("unterminated bracket atom", position)


class UnclosedBranch(SmilesError):
    def __init__(self, message: str = "unclosed branch") -> None:
        super().__init__(message)


class UnmatchedRingBond(SmilesError):
    def __init__(self, digit: int, message: str | None = None) -> None:
        self.digit = digit
        super().__init__(message or f"ring bond {digit} opened but never closed")


class StereoUnsupported(SmilesError):
    def __init__(self, what: str, position: int | None = None) -> None:
        super().__init__(f"stereo/isotope markers are not supported ({what})", position)


class TokenKind(enum.Enum):
    ATOM = "atom"
    BRACKET_ATOM = "bracket_atom"
    BOND = "bond"
    RING_BOND = "ring_bond"
    BRANCH_OPEN = "branch_open"
    BRANCH_CLOSE = "branch_close"
    DOT = "dot"


class Token(NamedTuple):
    text: str
    kind: TokenKind


# One group per TokenKind, in its order, then a catch-all: finditer never skips
# a character, and the first catch-all match is the first lexing error.
_TOKEN_RE = re.compile(
    r"(Cl|Br|[BCNOPSFIbcnops])"  # atom in the organic subset
    r"|(\[[^\]]*\])"  # bracket atom, decoded by _parse_bracket
    r"|([-=#:/\\])"  # bond; / and \ are lexed so that parse rejects them as stereo markers
    r"|(%\d\d|\d)"  # ring bond
    r"|(\()|(\))|(\.)"  # branch open, branch close, dot
    r"|(.)",
    re.DOTALL,
)
_KIND_OF_GROUP = (None, *TokenKind, None)
# A bracket atom's body after the '@' and isotope checks: element or aromatic
# symbol, optional H count, optional charge as digits or a repeated sign.
_BRACKET_RE = re.compile(r"([A-Z][a-z]?|[bcnops])(?:H(\d*))?(?:([+-])(\d+|\3*))?")


class BondOrder(enum.Enum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4


_BOND_ORDER = {"-": BondOrder.SINGLE, "=": BondOrder.DOUBLE, "#": BondOrder.TRIPLE, ":": BondOrder.AROMATIC}
_BOND_SYMBOL = {order.value: symbol for symbol, order in _BOND_ORDER.items()}  # keyed by bond code
_SINGLE, _AROMATIC_BOND = BondOrder.SINGLE, BondOrder.AROMATIC
_SINGLE_CODE, _AROMATIC_CODE = _SINGLE.value, _AROMATIC_BOND.value
_ATOM, _BRACKET_ATOM, _BOND, _RING_BOND = TokenKind.ATOM, TokenKind.BRACKET_ATOM, TokenKind.BOND, TokenKind.RING_BOND
_BRANCH_OPEN, _BRANCH_CLOSE, _DOT = TokenKind.BRANCH_OPEN, TokenKind.BRANCH_CLOSE, TokenKind.DOT


@dataclass
class Atom:
    element: str
    aromatic: bool = False
    charge: int = 0
    h_count: int | None = None  # None: implicit (organic subset); int: explicit


class Bond(NamedTuple):
    a: int
    b: int
    order: BondOrder


@dataclass
class MolGraph:
    """Atoms plus undirected bonds; endpoints are atom indices."""

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    # Endpoint pairs (low, high) of the bonds passed in or added by add_bond; a bond appended
    # directly must add its own pair.
    _pairs: set[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._pairs = {(min(a, b), max(a, b)) for a, b, _ in self.bonds}

    def add_bond(self, a: int, b: int, order: BondOrder) -> None:
        n = len(self.atoms)
        if not (0 <= a < n and 0 <= b < n):
            raise SmilesError(f"bond endpoint out of range: ({a}, {b})")
        if a == b:
            raise SmilesError("self-loop bond")
        key = (min(a, b), max(a, b))
        if key in self._pairs:
            raise SmilesError(f"duplicate bond between atoms {a} and {b}")
        self.bonds.append(Bond(a, b, order))
        self._pairs.add(key)


def tokenize(smiles: str) -> list[Token]:
    """Lex a SMILES string; joining the token texts reproduces the input."""
    if not smiles:
        raise UnexpectedCharacter(0, "")
    try:
        smiles.encode("ascii")
    except UnicodeEncodeError as exc:
        raise UnexpectedCharacter(exc.start, smiles[exc.start]) from None

    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(smiles):
        kind = _KIND_OF_GROUP[m.lastindex]
        if kind is None:
            raise UnterminatedBracket(m.start()) if m[0] == "[" else UnexpectedCharacter(m.start(), m[0])
        tokens.append(Token(m[0], kind))
    return tokens


def _parse_bracket(text: str, position: int) -> Atom:
    """Decode one '[...]' token into an Atom."""
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
    return Atom(symbol.upper() if aromatic else symbol, aromatic, charge, h_count)


def parse(smiles: str) -> MolGraph:
    """Build the molecular graph a SMILES string spells out."""
    graph = MolGraph()
    atoms, bonds, pairs = graph.atoms, graph.bonds, graph._pairs
    anchor: int | None = None
    pending: BondOrder | None = None
    branch_stack: list[int | None] = []
    open_rings: dict[int, tuple[int, BondOrder | None]] = {}

    tok_pos = 0
    for text, kind in tokenize(smiles):
        if kind is _ATOM or kind is _BRACKET_ATOM:
            if kind is _ATOM:
                aromatic = text in _AROMATIC
                atom = Atom(element=text.upper() if aromatic else text, aromatic=aromatic)
            else:
                atom = _parse_bracket(text, tok_pos)
            idx = len(atoms)
            atoms.append(atom)
            if anchor is not None:
                if pending is None:
                    pending = _AROMATIC_BOND if atom.aromatic and atoms[anchor].aromatic else _SINGLE
                # A chain bond always reaches a new atom, so it is never a duplicate.
                bonds.append(Bond(anchor, idx, pending))
                pairs.add((anchor, idx))
            anchor = idx
            pending = None
        elif kind is _BOND:
            if text in "/\\":
                raise StereoUnsupported(f"directional bond {text!r}", tok_pos)
            if anchor is None or pending is not None:
                raise SmilesError("bond symbol without a preceding atom", tok_pos)
            pending = _BOND_ORDER[text]
        elif kind is _RING_BOND:
            digit = int(text[1:]) if text[0] == "%" else int(text)
            if anchor is None:
                raise SmilesError("ring bond digit before any atom", tok_pos)
            if digit in open_rings:
                other, other_order = open_rings.pop(digit)
                if other == anchor:
                    raise UnmatchedRingBond(digit, f"ring bond {digit} closes on its own atom")
                if pending is not None and other_order is not None and pending is not other_order:
                    raise UnmatchedRingBond(digit, f"ring bond {digit} has conflicting bond orders")
                order = pending or other_order
                if order is None:
                    order = _AROMATIC_BOND if atoms[other].aromatic and atoms[anchor].aromatic else _SINGLE
                graph.add_bond(other, anchor, order)
            else:
                open_rings[digit] = (anchor, pending)
            pending = None
        elif kind is _BRANCH_OPEN:
            if anchor is None or pending is not None:
                raise SmilesError("branch must follow an atom", tok_pos)
            branch_stack.append(anchor)
        elif kind is _BRANCH_CLOSE:
            if not branch_stack:
                raise UnclosedBranch("branch close without matching open")
            if pending is not None:
                raise SmilesError("dangling bond before branch close", tok_pos)
            anchor = branch_stack.pop()
        elif kind is _DOT:
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
    return graph


def _coded_adjacency(graph: MolGraph) -> list[list[tuple[int, int]]]:
    """Per atom, its (neighbor, bond code) pairs; the code is the bond order's value."""
    adj: list[list[tuple[int, int]]] = [[] for _ in graph.atoms]
    for a, b, order in graph.bonds:
        code = order.value
        adj[a].append((b, code))
        adj[b].append((a, code))
    return adj


def _fragments(adj) -> list[list[int]]:
    """Atom indices of each connected component, in order of their lowest atom."""
    seen = [False] * len(adj)
    result = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            a = stack.pop()
            comp.append(a)
            for b, _ in adj[a]:
                if not seen[b]:
                    seen[b] = True
                    stack.append(b)
        result.append(sorted(comp))
    return result


def _dense(keys: list) -> tuple[list[int], int]:
    """Dense 0-based rank of each key among the distinct keys, and their count."""
    rank_of = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [rank_of[k] for k in keys], len(rank_of)


def _morgan_ranks(graph: MolGraph, atoms: list[int], adj) -> list[int]:
    """Iteratively refined ranks of ``atoms``, one connected fragment, in its order.

    Starts from (element, aromatic, charge, H count, degree) and refines by
    sorted neighbor (bond code, rank) multisets until the partition stops
    splitting.  Ranks are dense, 0-based, lowest rank first.

    Everything is a list indexed by an atom's position in ``atoms``, and a
    neighbor's (bond code, rank) pair is the one int ``code * n + rank``
    (integer invariants as in Schneider, Sayle and Landrum 2015).  This keeps
    the order of the pair keys:
    - every rank is below n, so ``code * n + rank`` is strictly increasing
      in (code, rank), and sorting the ints sorts the pairs;
    - two atoms' neighbor keys are only compared when their own ranks are
      equal, and equal ranks imply equal degree (degree is in the initial
      key, and a pass only splits classes), so the two sorted int tuples
      have one length and compare element by element, as the pairs did.

    A pass keys atoms by (rank, neighbor ints), so it keeps the order of
    the old ranks and only splits classes.  When it splits none, it returns
    the ranks it was given.  The loop therefore stops once every atom has a
    rank of its own, or as soon as the count of ranks stops growing.
    """
    n = len(atoms)
    position = {a: i for i, a in enumerate(atoms)}
    neighbors = [[(code * n, position[b]) for b, code in adj[a]] for a in atoms]
    initial = []
    for a in atoms:
        atom = graph.atoms[a]
        initial.append((atom.element, atom.aromatic, atom.charge, -1 if atom.h_count is None else atom.h_count,
                        len(adj[a])))
    ranks, count = _dense(initial)
    while count < n:
        keys = []
        for i, pairs in enumerate(neighbors):
            codes = [base + ranks[j] for base, j in pairs]
            codes.sort()
            keys.append((ranks[i], *codes))
        new, new_count = _dense(keys)
        if new_count == count:
            break
        ranks, count = new, new_count
    return ranks


def _atom_token(atom: Atom) -> str:
    bare_ok = (
        atom.charge == 0
        and atom.h_count is None
        and (atom.element in _ORGANIC or atom.element in _TWO_LETTER or (atom.aromatic and atom.element.lower() in _AROMATIC))
    )
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if bare_ok:
        return symbol
    parts = ["[", symbol]
    h = atom.h_count or 0
    if h > 0:
        parts.append("H" if h == 1 else f"H{h}")
    if atom.charge:
        sign, size = ("+", atom.charge) if atom.charge > 0 else ("-", -atom.charge)
        parts.append(sign if size == 1 else f"{sign}{size}")
    parts.append("]")
    return "".join(parts)


def _write_fragment(graph: MolGraph, atoms: list[int], adj, priority: list) -> str:
    """Emit one fragment as SMILES, visiting atoms in priority order (lowest first)."""
    start = min(atoms, key=priority.__getitem__)
    # Depth-first walk from the start atom.  The stack carries the bond code
    # from the parent, and each ring bond is met once, from its later atom.
    preorder: dict[int, int] = {}
    children: dict[int, list[tuple[int, int]]] = {}
    closures: dict[int, list[tuple[int, int]]] = {}
    stack = [(start, -1, 0)]

    def by_priority(pair: tuple[int, int]):
        return priority[pair[0]]

    while stack:
        a, parent, code = stack.pop()
        if a in preorder:
            continue
        preorder[a] = len(preorder)
        children[a] = []
        if parent >= 0:
            children[parent].append((a, code))
        neighbors = adj[a]
        if len(neighbors) > 1:
            # LIFO stack: push in reverse so the best-priority child is written first.
            neighbors = sorted(neighbors, key=by_priority, reverse=True)
        for b, code in neighbors:
            if b not in preorder:
                stack.append((b, a, code))
            elif b != parent:
                closures.setdefault(a, []).append((b, code))
                closures.setdefault(b, []).append((a, code))

    atom_of = graph.atoms

    def by_preorder(pair: tuple[int, int]) -> int:
        return preorder[pair[0]]

    digit_of: dict[tuple[int, int], int] = {}
    in_use: set[int] = set()
    # Explicit stack of pending atoms (int) and literal text (str), so chain
    # length is not bounded by the recursion limit.  Atoms are written, and
    # ring digits assigned, in the order a recursive descent would visit them.
    out: list[str] = []
    pending: list[int | str] = [start]
    while pending:
        a = pending.pop()
        if type(a) is str:
            out.append(a)
            continue
        atom = atom_of[a]
        out.append(_atom_token(atom))
        if a in closures:
            for b, code in sorted(closures[a], key=by_preorder):
                key = (a, b) if a < b else (b, a)
                if key in digit_of:
                    digit = digit_of.pop(key)
                    in_use.discard(digit)
                else:
                    digit = 1
                    while digit in in_use:
                        digit += 1
                    if digit > 99:
                        # "%100" would be read back as ring 10 followed by ring 0.
                        raise SmilesError("more than 99 ring bonds open at once")
                    in_use.add(digit)
                    digit_of[key] = digit
                implicit = _AROMATIC_CODE if atom.aromatic and atom_of[b].aromatic else _SINGLE_CODE
                bond = "" if code == implicit else _BOND_SYMBOL[code]
                out.append(bond + (str(digit) if digit < 10 else f"%{digit:02d}"))
        kids = children[a]
        last = len(kids) - 1
        for k in range(last, -1, -1):
            b, code = kids[k]
            implicit = _AROMATIC_CODE if atom.aromatic and atom_of[b].aromatic else _SINGLE_CODE
            bond = "" if code == implicit else _BOND_SYMBOL[code]
            # Pushed in reverse: every child but the last is a parenthesized branch.
            pending.extend((")", b, bond, "(") if k < last else (b, bond))
    return "".join(out)


def write_smiles(graph: MolGraph, priority: list[int] | None = None) -> str:
    """Write a SMILES string for the graph, visiting atoms by (priority, index), lowest first."""
    if not graph.atoms:
        raise SmilesError("cannot write an empty graph")
    n = len(graph.atoms)
    adj = _coded_adjacency(graph)
    prio = list(range(n)) if priority is None else [priority[a] * n + a for a in range(n)]
    return ".".join(_write_fragment(graph, frag, adj, prio) for frag in _fragments(adj))


def canonicalize(graph: MolGraph) -> str:
    """Deterministic canonical SMILES for the graph.

    The output depends only on the isomorphism class of the graph as long
    as the Morgan refinement assigns distinct ranks within each fragment;
    residual automorphism ties fall back to input order.  Fragments are
    written independently and joined by '.' in sorted order.
    """
    if not graph.atoms:
        raise SmilesError("cannot canonicalize an empty graph")
    n = len(graph.atoms)
    adj = _coded_adjacency(graph)
    fragments = _fragments(adj)
    prio = [0] * n
    for frag in fragments:
        for a, r in zip(frag, _morgan_ranks(graph, frag, adj)):
            prio[a] = r * n + a  # orders atoms by (rank, index)
    return ".".join(sorted(_write_fragment(graph, frag, adj, prio) for frag in fragments))


def canonical_smiles(smiles: str) -> str:
    return canonicalize(parse(smiles))


def permute_atoms(graph: MolGraph, perm: list[int]) -> MolGraph:
    """Relabel atoms: new index perm[i] gets old atom i."""
    if sorted(perm) != list(range(len(graph.atoms))):
        raise ValueError("perm must be a permutation of the atom indices")
    atoms: list[Atom | None] = [None] * len(graph.atoms)
    for old, new in enumerate(perm):
        a = graph.atoms[old]
        atoms[new] = Atom(a.element, a.aromatic, a.charge, a.h_count)
    out = MolGraph(atoms=atoms)  # type: ignore[arg-type]
    for a, b, order in graph.bonds:
        out.add_bond(perm[a], perm[b], order)
    return out


def random_smiles(graph: MolGraph, rng: np.random.Generator) -> str:
    """A random rewrite of the graph: same molecule, shuffled atom order."""
    perm = rng.permutation(len(graph.atoms)).tolist()
    return write_smiles(permute_atoms(graph, perm), rng.permutation(len(graph.atoms)).tolist())


@dataclass(frozen=True)
class Vocabulary:
    """Token-text to id map with reserved PAD (0) and UNK (1) slots."""

    token_to_id: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def id_of(self, text: str) -> int:
        return self.token_to_id.get(text, UNK_ID)

    def to_json(self) -> dict[str, int]:
        return dict(self.token_to_id)

    @classmethod
    def from_json(cls, data: dict[str, int]) -> "Vocabulary":
        vocab = cls(token_to_id={str(k): int(v) for k, v in data.items()})
        if vocab.token_to_id.get(PAD_TOKEN) != PAD_ID or vocab.token_to_id.get(UNK_TOKEN) != UNK_ID:
            raise ValueError(f"reserved tokens must map {PAD_TOKEN!r} to {PAD_ID} and {UNK_TOKEN!r} to {UNK_ID}")
        return vocab


def build_vocabulary(corpus: list[str]) -> Vocabulary:
    """Vocabulary of all distinct tokens in the corpus, ids sorted by text."""
    texts: set[str] = set()
    for i, smiles in enumerate(corpus):
        try:
            texts.update(tok.text for tok in tokenize(smiles))
        except SmilesError as exc:
            exc.corpus_index = i
            raise
    mapping = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    for text in sorted(texts):
        mapping[text] = len(mapping)
    return Vocabulary(token_to_id=mapping)


def encode_tokens(smiles: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """Token ids padded or truncated to exactly max_len; OOV maps to UNK."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    ids = [vocab.id_of(tok.text) for tok in tokenize(smiles)][:max_len]
    ids.extend([PAD_ID] * (max_len - len(ids)))
    return ids
