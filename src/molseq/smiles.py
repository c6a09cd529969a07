"""SMILES tokenizing, parsing, canonicalization and vocabulary building.

The dialect covered here is the organic subset plus bracket atoms with
charge and explicit hydrogen counts.  Stereo markers and isotopes are
rejected outright (StereoUnsupported) instead of being stripped, and no
valence or aromaticity perception is attempted: a molecule is exactly the
graph its SMILES spells out.

One reader, ``parse``, walks a string's regex matches once and emits the
one molecule form, a ``Molecule`` that holds each bond once at each of
its two atoms.  ``canonical_smiles`` hands it straight to the canonical
core (Morgan refinement, then the writer), and ``canonicalize``,
``write_smiles``, ``permute_atoms`` and ``random_smiles`` take a
``Molecule``.  ``tokenize`` returns the token texts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Molecule",
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


# One group per kind of token, then a catch-all: finditer never skips a
# character, and the first catch-all match is the first lexing error.  parse
# dispatches on these group numbers.
_ATOM, _BRACKET_ATOM, _BOND, _RING_BOND, _BRANCH_OPEN, _BRANCH_CLOSE, _DOT, _JUNK = range(1, 9)
_TOKEN_RE = re.compile(
    r"(Cl|Br|[BCNOPSFIbcnops])"  # atom in the organic subset
    r"|(\[[^\]]*\])"  # bracket atom, decoded by _parse_bracket
    r"|([-=#:/\\])"  # bond; / and \ are lexed so that parse rejects them as stereo markers
    r"|(%\d\d|\d)"  # ring bond
    r"|(\()|(\))|(\.)"  # branch open, branch close, dot
    r"|(.)",
    re.DOTALL,
)
# A bracket atom's body after the '@' and isotope checks: element or aromatic
# symbol, optional H count, optional charge as digits or a repeated sign.
_BRACKET_RE = re.compile(r"([A-Z][a-z]?|[bcnops])(?:H(\d*))?(?:([+-])(\d+|\3*))?")

# A bond's code: 1 single, 2 double, 3 triple, 4 aromatic; 0 stands for "no bond symbol read".
_BOND_CODE = {symbol: code for code, symbol in enumerate("-=#:", start=1)}
_BOND_SYMBOL = {code: symbol for symbol, code in _BOND_CODE.items()}
_SINGLE_CODE, _AROMATIC_CODE = _BOND_CODE["-"], _BOND_CODE[":"]
# Invariant of each organic-subset lexeme; its output token is the lexeme itself.
_ORGANIC_INVARIANT = {s: (s.upper() if s in _AROMATIC else s, s in _AROMATIC, 0, -1)
                      for s in (*_ORGANIC, *_TWO_LETTER, *_AROMATIC)}


class Molecule(NamedTuple):
    """A molecule as ``parse`` gives it; atoms are list indices, and a bond code is as in ``_BOND_CODE``."""

    invariants: list[tuple[str, bool, int, int]]  # (element, aromatic, charge, H count or -1 for implicit)
    tokens: list[str]  # each atom's text in a written SMILES
    adj: list[list[tuple[int, int]]]  # each atom's (neighbor, bond code) pairs, in the order its bonds were read


def _lexemes(smiles: str):
    """The token matches of a SMILES string, in order; raises at its first lexing error."""
    if not smiles:
        raise UnexpectedCharacter(0, "")
    if not smiles.isascii():
        start = next(i for i, ch in enumerate(smiles) if not ch.isascii())
        raise UnexpectedCharacter(start, smiles[start])
    for m in _TOKEN_RE.finditer(smiles):
        if m.lastindex == _JUNK:
            raise UnterminatedBracket(m.start()) if m[0] == "[" else UnexpectedCharacter(m.start(), m[0])
        yield m


def tokenize(smiles: str) -> list[str]:
    """Lex a SMILES string into its token texts; joining them reproduces the input."""
    return [m[0] for m in _lexemes(smiles)]


def _parse_bracket(text: str, position: int) -> tuple[str, bool, int, int]:
    """Decode one '[...]' token into its atom invariant (element, aromatic, charge, H count)."""
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


def parse(smiles: str) -> Molecule:
    """The molecule a SMILES string spells out, read in one pass.

    A lexing error anywhere in the string wins over an earlier parse error:
    on a parse error the whole string is lexed first, and the first lexing
    error, if there is one, is raised instead.
    """
    invariants: list[tuple[str, bool, int, int]] = []
    tokens: list[str] = []
    adj: list[list[tuple[int, int]]] = []
    anchor, pending = -1, 0  # the atom a bond would start from (-1: none), and the bond code read
    branches: list[int] = []
    rings: dict[int, tuple[int, int]] = {}
    try:
        for m in _lexemes(smiles):
            group = m.lastindex
            if group <= _BRACKET_ATOM:
                text = m[0]
                if group == _ATOM:
                    invariant = _ORGANIC_INVARIANT[text]
                else:
                    invariant = _parse_bracket(text, m.start())
                    text = _atom_token(*invariant)
                idx = len(tokens)
                invariants.append(invariant)
                tokens.append(text)
                if anchor < 0:
                    adj.append([])
                else:
                    # A chain bond always reaches a new atom, so it is never a duplicate.
                    code = pending or (_AROMATIC_CODE if invariant[1] and invariants[anchor][1] else _SINGLE_CODE)
                    adj[anchor].append((idx, code))
                    adj.append([(anchor, code)])
                anchor, pending = idx, 0
            elif group == _RING_BOND:
                text = m[0]
                digit = int(text[1:]) if text[0] == "%" else int(text)
                if anchor < 0:
                    raise SmilesError("ring bond digit before any atom", m.start())
                if digit not in rings:
                    rings[digit] = (anchor, pending)
                    pending = 0
                    continue
                other, other_code = rings.pop(digit)
                if other == anchor:
                    raise UnmatchedRingBond(digit, f"ring bond {digit} closes on its own atom")
                if pending and other_code and pending != other_code:
                    raise UnmatchedRingBond(digit, f"ring bond {digit} has conflicting bond orders")
                code = pending or other_code or (
                    _AROMATIC_CODE if invariants[other][1] and invariants[anchor][1] else _SINGLE_CODE)
                # Scan the shorter neighbor list, so that many closures on one atom stay linear.
                near, far = (other, anchor) if len(adj[other]) < len(adj[anchor]) else (anchor, other)
                if any(b == far for b, _ in adj[near]):
                    raise SmilesError(f"duplicate bond between atoms {other} and {anchor}")
                adj[other].append((anchor, code))
                adj[anchor].append((other, code))
                pending = 0
            elif group == _BRANCH_OPEN:
                if anchor < 0 or pending:
                    raise SmilesError("branch must follow an atom", m.start())
                branches.append(anchor)
            elif group == _BRANCH_CLOSE:
                if not branches:
                    raise UnclosedBranch("branch close without matching open")
                if pending:
                    raise SmilesError("dangling bond before branch close", m.start())
                anchor = branches.pop()
            elif group == _BOND:
                text = m[0]
                if text in "/\\":
                    raise StereoUnsupported(f"directional bond {text!r}", m.start())
                if anchor < 0 or pending:
                    raise SmilesError("bond symbol without a preceding atom", m.start())
                pending = _BOND_CODE[text]
            else:  # _DOT
                if pending:
                    raise SmilesError("dangling bond before fragment separator", m.start())
                anchor = -1
    except SmilesError:
        tokenize(smiles)  # raises the first lexing error, if the string has one
        raise
    if pending:
        raise SmilesError("dangling bond at end of input")
    if rings:
        raise UnmatchedRingBond(min(rings))
    if branches:
        raise UnclosedBranch()
    return Molecule(invariants, tokens, adj)


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


def _morgan_ranks(invariants: list, atoms: list[int], adj) -> list[int]:
    """Iteratively refined ranks of ``atoms``, one connected fragment, in its order.

    Starts from (invariant, degree), the invariant being (element, aromatic,
    charge, H count or -1), and refines by sorted neighbor (bond code, rank)
    multisets until the partition stops splitting.  Ranks are dense, 0-based.

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
    ranks, count = _dense([(invariants[a], len(adj[a])) for a in atoms])
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


def _atom_token(element: str, aromatic: bool, charge: int, h_count: int) -> str:
    """An atom's text from its invariant; an implicit H count (-1) writes an organic-subset atom bare."""
    symbol = element.lower() if aromatic else element
    if charge == 0 and h_count < 0 and (element in _ORGANIC or element in _TWO_LETTER or symbol in _AROMATIC):
        return symbol
    parts = ["[", symbol]
    if h_count > 0:
        parts.append("H" if h_count == 1 else f"H{h_count}")
    if charge:
        sign, size = ("+", charge) if charge > 0 else ("-", -charge)
        parts.append(sign if size == 1 else f"{sign}{size}")
    parts.append("]")
    return "".join(parts)


def _write_fragments(invariants: list, tokens: list[str], adj, priority: list, fragments: list[list[int]]) -> list[str]:
    """Each fragment as SMILES, visiting atoms in priority order (lowest first)."""
    n = len(tokens)
    slot = [-1] * n  # where each atom's text sits in its fragment's output; -1 until it is reached
    branch = [-1] * n  # where each atom's latest child sits

    def by_priority(pair: tuple[int, int]):
        return priority[pair[0]]

    texts = []
    for frag in fragments:
        # Depth-first walk from the best atom, writing each atom (after the bond
        # from its parent) as it is first reached, so slots follow preorder.  The
        # stack carries the bond code from the parent, and each ring bond is met
        # once, from its later atom.  Every child but the last is a parenthesized
        # branch: when a second child is reached, the first one's subtree is
        # complete and gets its parens.
        out: list[str] = []
        rings: dict[int, list[tuple[int, int, int]]] = {}
        stack = [(min(frag, key=priority.__getitem__), -1, 0)]
        while stack:
            a, parent, code = stack.pop()
            if slot[a] >= 0:
                continue
            text = tokens[a]
            if parent >= 0:
                if code != (_AROMATIC_CODE if invariants[a][1] and invariants[parent][1] else _SINGLE_CODE):
                    text = _BOND_SYMBOL[code] + text
                if branch[parent] >= 0:
                    out[branch[parent]] = "(" + out[branch[parent]]
                    out.append(")")
                branch[parent] = len(out)
            slot[a] = len(out)
            out.append(text)
            neighbors = adj[a]
            if len(neighbors) > 1 + (parent >= 0):  # the parent is never pushed: one other needs no order
                # LIFO stack: push in reverse so the best-priority child is written first.
                neighbors = sorted(neighbors, key=by_priority, reverse=True)
            for b, code in neighbors:
                if slot[b] < 0:
                    stack.append((b, a, code))
                elif b != parent:
                    rings.setdefault(a, []).append((slot[b], b, code))
                    rings.setdefault(b, []).append((slot[a], a, code))
        # Ring digits, assigned in output order: at each atom, its ring bonds in
        # the output order of their other ends, each taking the lowest free digit.
        digit_of: dict[tuple[int, int], int] = {}
        in_use: set[int] = set()
        for a in sorted(rings, key=slot.__getitem__):
            aromatic = invariants[a][1]
            pieces = [out[slot[a]]]
            for _, b, code in sorted(rings[a]):
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
                implicit = _AROMATIC_CODE if aromatic and invariants[b][1] else _SINGLE_CODE
                bond = "" if code == implicit else _BOND_SYMBOL[code]
                pieces.append(bond + (str(digit) if digit < 10 else f"%{digit:02d}"))
            out[slot[a]] = "".join(pieces)
        texts.append("".join(out))
    return texts


def write_smiles(mol: Molecule, priority: list[int] | None = None) -> str:
    """Write a SMILES string for the molecule, visiting atoms by (priority, index), lowest first."""
    invariants, tokens, adj = mol
    n = len(tokens)
    if not n:
        raise SmilesError("cannot write an empty graph")
    if priority is not None and len(priority) != n:
        raise ValueError(f"priority must give one value per atom, got {len(priority)} for {n} atoms")
    prio = list(range(n)) if priority is None else [priority[a] * n + a for a in range(n)]
    return ".".join(_write_fragments(invariants, tokens, adj, prio, _fragments(adj)))


def _canonical(mol: Molecule, fragments: list[list[int]]) -> str:
    """The canonical core: Morgan ranks per fragment, then each fragment written from them."""
    invariants, tokens, adj = mol
    n = len(tokens)
    if not n:
        raise SmilesError("cannot canonicalize an empty graph")
    prio = [0] * n
    for frag in fragments:
        for a, r in zip(frag, _morgan_ranks(invariants, frag, adj)):
            prio[a] = r * n + a  # orders atoms by (rank, index)
    return ".".join(sorted(_write_fragments(invariants, tokens, adj, prio, fragments)))


def canonicalize(mol: Molecule) -> str:
    """Deterministic canonical SMILES for the molecule.

    The output depends only on the isomorphism class of the graph as long
    as the Morgan refinement assigns distinct ranks within each fragment;
    residual automorphism ties fall back to input order.  Fragments are
    written independently and joined by '.' in sorted order.
    """
    return _canonical(mol, _fragments(mol.adj))


def canonical_smiles(smiles: str) -> str:
    """``canonicalize(parse(smiles))``, with one fragment taken as given when the string has no '.'."""
    mol = parse(smiles)
    # Without a '.', every atom but the first bonds to one read before it: one fragment.
    return _canonical(mol, _fragments(mol.adj) if "." in smiles else [list(range(len(mol.tokens)))])


def permute_atoms(mol: Molecule, perm: list[int]) -> Molecule:
    """Relabel atoms: new index perm[i] gets old atom i."""
    n = len(mol.tokens)
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of the atom indices")
    old = sorted(range(n), key=perm.__getitem__)  # the old index of each new one
    adj = [[(perm[b], code) for b, code in mol.adj[a]] for a in old]
    return Molecule([mol.invariants[a] for a in old], [mol.tokens[a] for a in old], adj)


def random_smiles(mol: Molecule, rng: np.random.Generator) -> str:
    """A random rewrite of the molecule: same graph, shuffled atom order."""
    n = len(mol.tokens)
    return write_smiles(permute_atoms(mol, rng.permutation(n).tolist()), rng.permutation(n).tolist())


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
            texts.update(tokenize(smiles))
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
    ids = [vocab.id_of(text) for text in tokenize(smiles)][:max_len]
    ids.extend([PAD_ID] * (max_len - len(ids)))
    return ids
