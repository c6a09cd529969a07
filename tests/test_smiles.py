import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molseq import smiles as sk
from molseq.data import load_smiles_pool

from reference import canonical_ranks

POOL = load_smiles_pool()


def random_molecule(rng: np.random.Generator, n_atoms: int) -> sk.MolGraph:
    """Random aliphatic molecule: a tree plus up to one ring edge."""
    elements = ["C", "C", "C", "C", "N", "O", "S", "P", "F", "Cl", "Br"]
    orders = [sk.BondOrder.SINGLE] * 4 + [sk.BondOrder.DOUBLE, sk.BondOrder.TRIPLE]
    graph = sk.MolGraph()
    for i in range(n_atoms):
        charge = int(rng.integers(-1, 2)) if rng.random() < 0.08 else 0
        h_count = int(rng.integers(0, 3)) if rng.random() < 0.15 else None
        element = elements[int(rng.integers(len(elements)))]
        if charge != 0 and h_count is None:
            h_count = 0  # charged atoms must be written in brackets anyway
        graph.atoms.append(sk.Atom(element=element, charge=charge, h_count=h_count))
        if i > 0:
            parent = int(rng.integers(i))
            graph.add_bond(parent, i, orders[int(rng.integers(len(orders)))])
    if n_atoms >= 4 and rng.random() < 0.5:
        for _ in range(4):
            a, b = sorted(int(x) for x in rng.choice(n_atoms, size=2, replace=False))
            if all({a, b} != {x.a, x.b} for x in graph.bonds):
                graph.add_bond(a, b, sk.BondOrder.SINGLE)
                break
    return graph


def fully_discriminated(graph: sk.MolGraph) -> bool:
    ranks = canonical_ranks(graph)
    return len(set(ranks)) == len(ranks)


def atom_key(a: sk.Atom):
    return (a.element, a.aromatic, a.charge, -1 if a.h_count is None else a.h_count)


def brute_isomorphic(g1: sk.MolGraph, g2: sk.MolGraph) -> bool:
    """Exhaustive permutation check; only feasible for small molecules."""
    n = len(g1.atoms)
    if n != len(g2.atoms) or len(g1.bonds) != len(g2.bonds):
        return False
    if sorted(map(atom_key, g1.atoms)) != sorted(map(atom_key, g2.atoms)):
        return False
    bonds2 = {(min(b.a, b.b), max(b.a, b.b)): b.order for b in g2.bonds}
    for perm in itertools.permutations(range(n)):
        if any(atom_key(g1.atoms[i]) != atom_key(g2.atoms[perm[i]]) for i in range(n)):
            continue
        mapped = {(min(perm[b.a], perm[b.b]), max(perm[b.a], perm[b.b])): b.order for b in g1.bonds}
        if mapped == bonds2:
            return True
    return False


class TestTokenize:
    def test_simple_atoms(self):
        assert [t.text for t in sk.tokenize("CCO")] == ["C", "C", "O"]

    def test_longest_match_chlorine(self):
        texts = [t.text for t in sk.tokenize("Clc1ccccc1")]
        assert texts == ["Cl", "c", "1", "c", "c", "c", "c", "c", "1"]

    def test_bracket_atom_is_one_token(self):
        toks = sk.tokenize("C(=O)[O-]")
        assert [t.text for t in toks] == ["C", "(", "=", "O", ")", "[O-]"]
        assert toks[-1].kind is sk.TokenKind.BRACKET_ATOM
        assert toks[-1].text.startswith("[") and toks[-1].text.endswith("]")

    def test_percent_ring_token(self):
        toks = sk.tokenize("C%12CC%12")
        assert [t.text for t in toks] == ["C", "%12", "C", "C", "%12"]

    @pytest.mark.parametrize("smiles", POOL)
    def test_round_trip_over_pool(self, smiles):
        assert "".join(t.text for t in sk.tokenize(smiles)) == smiles

    def test_unexpected_character_position(self):
        with pytest.raises(sk.UnexpectedCharacter) as err:
            sk.tokenize("CC?C")
        assert err.value.position == 2

    def test_unterminated_bracket(self):
        with pytest.raises(sk.UnterminatedBracket) as err:
            sk.tokenize("C[NH4")
        assert err.value.position == 1

    def test_bad_percent(self):
        with pytest.raises(sk.UnexpectedCharacter):
            sk.tokenize("C%1C")

    def test_empty_input(self):
        with pytest.raises(sk.SmilesError):
            sk.tokenize("")

    @given(st.integers(min_value=0, max_value=len(POOL) - 1), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_of_rewrites(self, pool_idx, seed):
        graph = sk.parse(POOL[pool_idx])
        rewrite = sk.random_smiles(graph, np.random.default_rng(seed))
        assert "".join(t.text for t in sk.tokenize(rewrite)) == rewrite


class TestParse:
    def test_linear(self):
        g = sk.parse("CCO")
        assert [a.element for a in g.atoms] == ["C", "C", "O"]
        assert {(b.a, b.b) for b in g.bonds} == {(0, 1), (1, 2)}
        assert all(b.order is sk.BondOrder.SINGLE for b in g.bonds)

    def test_ring_closure_triangle(self):
        g = sk.parse("C1CC1")
        assert len(g.atoms) == 3
        assert {(min(b.a, b.b), max(b.a, b.b)) for b in g.bonds} == {(0, 1), (1, 2), (0, 2)}

    def test_unclosed_branch(self):
        with pytest.raises(sk.UnclosedBranch):
            sk.parse("C(C")

    def test_stray_branch_close(self):
        with pytest.raises(sk.UnclosedBranch):
            sk.parse("CC)C")

    def test_unmatched_ring_bond(self):
        with pytest.raises(sk.UnmatchedRingBond) as err:
            sk.parse("C1CCC")
        assert err.value.digit == 1

    def test_ring_self_loop(self):
        with pytest.raises(sk.UnmatchedRingBond):
            sk.parse("C11")

    def test_duplicate_ring_bond(self):
        with pytest.raises(sk.SmilesError):
            sk.parse("C12CC12")

    def test_duplicate_ring_bond_names_its_atoms(self):
        with pytest.raises(sk.SmilesError, match="^duplicate bond between atoms 0 and 2$"):
            sk.parse("C12CC12")

    def test_duplicate_of_parsed_bond(self):
        graph = sk.parse("C1CC1")
        with pytest.raises(sk.SmilesError, match="^duplicate bond between atoms 2 and 0$"):
            graph.add_bond(2, 0, sk.BondOrder.SINGLE)
        assert len(graph.bonds) == 3

    def test_duplicate_of_constructor_bond(self):
        graph = sk.MolGraph(atoms=[sk.Atom("C"), sk.Atom("O")], bonds=[sk.Bond(0, 1, sk.BondOrder.SINGLE)])
        with pytest.raises(sk.SmilesError, match="duplicate bond between atoms 1 and 0"):
            graph.add_bond(1, 0, sk.BondOrder.DOUBLE)
        assert len(graph.bonds) == 1

    @pytest.mark.parametrize("bad", ["C/C=C/C", "C[C@H](N)C", "[13CH3]C"])
    def test_stereo_and_isotopes_rejected(self, bad):
        with pytest.raises(sk.StereoUnsupported):
            sk.parse(bad)

    def test_aromatic_ring(self):
        g = sk.parse("c1ccccc1")
        assert all(a.aromatic and a.element == "C" for a in g.atoms)
        assert all(b.order is sk.BondOrder.AROMATIC for b in g.bonds)

    def test_bracket_attributes(self):
        g = sk.parse("[NH4+].[O-].[Fe+2].[nH]")
        n, o, fe, nh = g.atoms
        assert (n.element, n.h_count, n.charge) == ("N", 4, 1)
        assert (o.element, o.h_count, o.charge) == ("O", 0, -1)
        assert (fe.element, fe.charge) == ("Fe", 2)
        assert (nh.element, nh.aromatic, nh.h_count) == ("N", True, 1)
        assert not g.bonds

    def test_double_minus_charge(self):
        g = sk.parse("[O--]")
        assert g.atoms[0].charge == -2

    def test_dangling_bond(self):
        with pytest.raises(sk.SmilesError):
            sk.parse("CC=")

    def test_explicit_bond_orders(self):
        g = sk.parse("C=C#N")
        assert g.bonds[0].order is sk.BondOrder.DOUBLE
        assert g.bonds[1].order is sk.BondOrder.TRIPLE

    def test_branch_bond(self):
        g = sk.parse("CC(=O)O")
        orders = {(min(b.a, b.b), max(b.a, b.b)): b.order for b in g.bonds}
        assert orders[(1, 2)] is sk.BondOrder.DOUBLE
        assert orders[(1, 3)] is sk.BondOrder.SINGLE


class TestCanonicalize:
    def test_same_graph_same_string(self):
        assert sk.canonicalize(sk.parse("OCC")) == sk.canonicalize(sk.parse("CCO"))

    def test_ring_digit_irrelevant(self):
        assert sk.canonicalize(sk.parse("C1CC1")) == sk.canonicalize(sk.parse("C2CC2"))

    @pytest.mark.parametrize("smiles", POOL[::10])
    def test_idempotent_on_pool(self, smiles):
        canon = sk.canonical_smiles(smiles)
        assert sk.canonical_smiles(canon) == canon

    def test_fragments_sorted(self):
        a = sk.canonical_smiles("[Na+].CC(=O)[O-]")
        b = sk.canonical_smiles("CC(=O)[O-].[Na+]")
        assert a == b
        assert a == ".".join(sorted(a.split(".")))

    def test_rewrite_invariance_sample(self):
        rng = np.random.default_rng(5)
        chosen = [s for s in POOL if fully_discriminated(sk.parse(s))][:20]
        assert len(chosen) == 20
        for smiles in chosen:
            graph = sk.parse(smiles)
            canon = sk.canonicalize(graph)
            for _ in range(50):
                rewrite = sk.random_smiles(graph, rng)
                assert sk.canonical_smiles(rewrite) == canon

    def test_exhaustive_isomorphism_oracle(self):
        # Canonical equality must coincide with graph isomorphism; verified
        # by exhaustive permutation on small random molecules.
        rng = np.random.default_rng(17)
        graphs = []
        while len(graphs) < 15:
            g = random_molecule(rng, int(rng.integers(3, 8)))
            if fully_discriminated(g):
                graphs.append(g)
        for g in graphs:
            canon = sk.canonicalize(g)
            for _ in range(25):
                rewritten = sk.parse(sk.random_smiles(g, rng))
                assert brute_isomorphic(g, rewritten)
                assert sk.canonicalize(rewritten) == canon
        for g1, g2 in itertools.combinations(graphs, 2):
            same_canon = sk.canonicalize(g1) == sk.canonicalize(g2)
            assert same_canon == brute_isomorphic(g1, g2)

    def test_canonical_parses_to_isomorphic_graph(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = random_molecule(rng, int(rng.integers(3, 8)))
            assert brute_isomorphic(g, sk.parse(sk.canonicalize(g)))

    def test_canonical_ranks_shape(self):
        g = sk.parse("CCO")
        ranks = canonical_ranks(g)
        assert len(ranks) == 3 and len(set(ranks)) == 3


def chain_graph(atoms: list[sk.Atom], bonds: list[tuple[int, int]]) -> sk.MolGraph:
    graph = sk.MolGraph(atoms=atoms)
    for a, b in bonds:
        graph.add_bond(a, b, sk.BondOrder.SINGLE)
    return graph


class TestLongChains:
    """Chains far deeper than the interpreter's recursion limit."""

    N = 5000

    def test_linear_chain(self):
        g = chain_graph([sk.Atom("C") for _ in range(self.N)], [(i, i + 1) for i in range(self.N - 1)])
        assert sk.write_smiles(g) == "C" * self.N

    def test_distinct_charges_canonicalize(self):
        # Distinct charges rank every atom apart at once, so refinement is a
        # single pass and canonicalize walks the whole chain from charge 0.
        bonds = [(i, i + 1) for i in range(self.N - 1)]
        expected = "C[C+]" + "".join(f"[C+{q}]" for q in range(2, self.N))
        for charges in (range(self.N), range(self.N - 1, -1, -1)):
            assert sk.canonicalize(chain_graph([sk.Atom("C", charge=q) for q in charges], bonds)) == expected

    def test_parse_permute_canonicalize(self):
        # Parsing and relabelling add one bond at a time, so each must stay linear in the bond count.
        text = "C[C+]" + "".join(f"[C+{q}]" for q in range(2, self.N))
        graph = sk.parse(text)
        assert (len(graph.atoms), len(graph.bonds)) == (self.N, self.N - 1)
        perm = [int(i) for i in np.random.default_rng(3).permutation(self.N)]
        assert sk.canonicalize(sk.permute_atoms(graph, perm)) == text

    def test_comb_closes_each_branch(self):
        # Backbone atom 2i carries a methyl 2i+1, which has priority over the
        # next backbone atom 2i+2 and so is written as a branch.
        n = self.N // 2
        bonds = [(2 * i, 2 * i + 1) for i in range(n)] + [(2 * i, 2 * i + 2) for i in range(n - 1)]
        g = chain_graph([sk.Atom("C") for _ in range(2 * n)], bonds)
        assert sk.write_smiles(g) == "C(C)" * (n - 1) + "CC"

    def test_branches_nest_to_full_depth(self):
        # Backbone 0..n-1 with methyls n..2n-1: the backbone continuation has
        # priority, so each one opens a branch that closes only at the end.
        n = self.N // 2
        bonds = [(i, i + 1) for i in range(n - 1)] + [(i, n + i) for i in range(n)]
        g = chain_graph([sk.Atom("C") for _ in range(2 * n)], bonds)
        assert sk.write_smiles(g) == "C(" * (n - 1) + "CC" + ")C" * (n - 1)


def nested_rings(k: int) -> sk.MolGraph:
    """A chain of 2k+2 atoms with ring bonds (i, 2k+1-i): all k are open at once when written from atom 0."""
    n = 2 * k + 2
    return chain_graph([sk.Atom("C") for _ in range(n)],
                       [(i, i + 1) for i in range(n - 1)] + [(i, n - 1 - i) for i in range(k)])


def bond_pairs(graph: sk.MolGraph) -> set[tuple[int, int]]:
    return {(min(b.a, b.b), max(b.a, b.b)) for b in graph.bonds}


class TestRingNumbers:
    def test_99_open_rings_round_trip(self):
        g = nested_rings(99)
        text = sk.write_smiles(g)
        assert "%99" in text
        assert bond_pairs(sk.parse(text)) == bond_pairs(g)

    def test_100_open_rings_raise(self):
        g = nested_rings(100)
        assert len(g.bonds) == 301
        with pytest.raises(sk.SmilesError, match="more than 99 ring bonds"):
            sk.write_smiles(g)


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestCanonicalGolden:
    """The bytes the SMILES layer writes, pinned by sha256 digests of the outputs
    of the dict-keyed Morgan refinement and writer that the integer-keyed ones replaced."""

    REWRITES = 2000

    @pytest.fixture(scope="class")
    def rewrites(self):
        # The generator of the benchmark's stream, without its de-duplication:
        # seed 7, stream 29, a pool molecule, then its rewrite.
        rng = np.random.default_rng(np.random.SeedSequence([7, 29]))
        graphs = [sk.parse(s) for s in POOL]
        return [sk.random_smiles(graphs[int(rng.integers(len(POOL)))], rng) for _ in range(self.REWRITES)]

    def test_pool_canonical_forms_and_ranks(self):
        lines = [f"{s}\t{sk.canonical_smiles(s)}\t{' '.join(map(str, canonical_ranks(sk.parse(s))))}"
                 for s in POOL]
        assert sha256_lines(lines) == "89048ddd2f9462ce487e8363e263386059d09363dc130d1921085e4a116faf04"

    def test_random_rewrites(self, rewrites):
        assert sha256_lines(rewrites) == "32f4c3fd2c1fc0f66a43af047f423d14aec86a7fad21689052e36db6aeb96cee"

    def test_canonical_forms_of_rewrites(self, rewrites):
        canonical = [sk.canonical_smiles(s) for s in rewrites]
        assert sha256_lines(canonical) == "2200bbf5b76e266ea3c36315bfed62a77e8da519737a232a4139345c24b7a44d"

    def test_pool_matches_benchmark_golden(self):
        tsv = Path(__file__).resolve().parents[1] / "perfbench" / "pool_canonical.tsv"
        golden = dict(line.split("\t") for line in tsv.read_text().splitlines())
        assert {s: sk.canonical_smiles(s) for s in POOL} == golden


# Single characters of the SMILES alphabet, plus whole tokens so that longer
# valid molecules turn up as well as broken ones.
SMILES_PIECES = list("BCNOPSFIbcnopslrH[]()%=#:/\\.@+-0123456789") + [
    "Cl", "Br", "c1ccccc1", "[NH4+]", "[O-]", "C(=O)", "%12", "[nH]", "C1", "CC",
]


class TestParserFuzz:
    """Arbitrary text either parses or fails with a SmilesError, never a raw
    IndexError, KeyError or ValueError; whatever canonicalizes is a fixed point."""

    @given(st.lists(st.sampled_from(SMILES_PIECES), max_size=30).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_typed_errors_and_idempotent_canonical_form(self, text):
        for step in (sk.tokenize, sk.parse):
            try:
                step(text)
            except sk.SmilesError:
                pass
        try:
            canon = sk.canonical_smiles(text)
        except sk.SmilesError:
            return
        assert sk.canonical_smiles(canon) == canon


# Each input's outcome through tokenize and parse: the error's class, column
# and message, or the atoms as (element, aromatic, charge, H count).
LEXER_TABLE = [
    ("", ("UnexpectedCharacter", 0, "unexpected character (column 0)")),
    ("C\nC", ("UnexpectedCharacter", 1, "unexpected character '\\n' (column 1)")),
    ("C\tC", ("UnexpectedCharacter", 1, "unexpected character '\\t' (column 1)")),
    ("C\r", ("UnexpectedCharacter", 1, "unexpected character '\\r' (column 1)")),
    ("C $", ("UnexpectedCharacter", 1, "unexpected character ' ' (column 1)")),
    ("C@C", ("UnexpectedCharacter", 1, "unexpected character '@' (column 1)")),
    ("Cé", ("UnexpectedCharacter", 1, "unexpected character 'é' (column 1)")),
    ("?é", ("UnexpectedCharacter", 1, "unexpected character 'é' (column 1)")),
    ("[é]", ("UnexpectedCharacter", 1, "unexpected character 'é' (column 1)")),
    ("%", ("UnexpectedCharacter", 0, "unexpected character '%' (column 0)")),
    ("C%1", ("UnexpectedCharacter", 1, "unexpected character '%' (column 1)")),
    ("C%1C", ("UnexpectedCharacter", 1, "unexpected character '%' (column 1)")),
    ("C%12%", ("UnexpectedCharacter", 4, "unexpected character '%' (column 4)")),
    ("C]", ("UnexpectedCharacter", 1, "unexpected character ']' (column 1)")),
    ("[C]]", ("UnexpectedCharacter", 3, "unexpected character ']' (column 3)")),
    ("C[NH4", ("UnterminatedBracket", 1, "unterminated bracket atom (column 1)")),
    ("[CH2", ("UnterminatedBracket", 0, "unterminated bracket atom (column 0)")),
    ("[]", ("UnexpectedCharacter", 1, "unexpected character (column 1)")),
    ("[x]", ("UnexpectedCharacter", 1, "unexpected character 'x' (column 1)")),
    ("[+]", ("UnexpectedCharacter", 1, "unexpected character '+' (column 1)")),
    ("[se]", ("UnexpectedCharacter", 2, "unexpected character 'e' (column 2)")),
    ("[13C]", ("StereoUnsupported", 0,
               "stereo/isotope markers are not supported (isotope label in bracket atom) (column 0)")),
    ("[C@H]", ("StereoUnsupported", 0,
               "stereo/isotope markers are not supported (chirality '@' in bracket atom) (column 0)")),
    ("C/C", ("StereoUnsupported", 1, "stereo/isotope markers are not supported (directional bond '/') (column 1)")),
    ("[CH2+3x]", ("UnexpectedCharacter", 6, "unexpected character 'x' (column 6)")),
    ("[O-+]", ("UnexpectedCharacter", 3, "unexpected character '+' (column 3)")),
    ("[N+-]", ("UnexpectedCharacter", 3, "unexpected character '-' (column 3)")),
    ("[C++3]", ("UnexpectedCharacter", 4, "unexpected character '3' (column 4)")),
    ("[NH4++]2", ("UnmatchedRingBond", None, "ring bond 2 opened but never closed")),
    ("[O--]", [("O", False, -2, 0)]),
    ("[O---]", [("O", False, -3, 0)]),
    ("[Fe+2]", [("Fe", False, 2, 0)]),
    ("[C-2]", [("C", False, -2, 0)]),
    ("[C+0]", [("C", False, 0, 0)]),
    ("[nH]", [("N", True, 0, 1)]),
    ("[HH]", [("H", False, 0, 1)]),
    ("[CH]", [("C", False, 0, 1)]),
    ("[CH0]", [("C", False, 0, 0)]),
    ("[CH-]", [("C", False, -1, 1)]),
    ("[NH3+]", [("N", False, 1, 3)]),
    ("[Cx]", [("Cx", False, 0, 0)]),
    ("[c]", [("C", True, 0, 0)]),
    ("Br[Br]", [("Br", False, 0, None), ("Br", False, 0, 0)]),
    ("[N]=[N+]=[N-]", [("N", False, 0, 0), ("N", False, 1, 0), ("N", False, -1, 0)]),
]


class TestLexerTable:
    """The lexer's outward behaviour: which error, at which column, with which
    message, or which atoms each input spells."""

    @pytest.mark.parametrize("text, expected", LEXER_TABLE, ids=[repr(text) for text, _ in LEXER_TABLE])
    def test_outcome(self, text, expected):
        try:
            graph = sk.parse(text)
        except sk.SmilesError as exc:
            assert (type(exc).__name__, exc.position, str(exc)) == expected
        else:
            assert [(a.element, a.aromatic, a.charge, a.h_count) for a in graph.atoms] == expected

    @given(st.lists(st.one_of(st.sampled_from(SMILES_PIECES), st.characters()), max_size=30).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_any_text_lexes_to_itself_or_raises(self, text):
        try:
            tokens = sk.tokenize(text)
        except sk.SmilesError:
            return
        assert "".join(tok.text for tok in tokens) == text


class TestVocabulary:
    def test_single_entry(self):
        vocab = sk.build_vocabulary(["CCO"])
        assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1, "C": 2, "O": 3}

    def test_dedup(self):
        assert sk.build_vocabulary(["CCO", "CCO"]).token_to_id == sk.build_vocabulary(["CCO"]).token_to_id

    def test_empty_corpus(self):
        vocab = sk.build_vocabulary([])
        assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1}

    def test_ids_contiguous_and_injective(self):
        vocab = sk.build_vocabulary(POOL)
        ids = sorted(vocab.token_to_id.values())
        assert ids == list(range(len(ids)))

    def test_error_carries_corpus_index(self):
        with pytest.raises(sk.SmilesError) as err:
            sk.build_vocabulary(["CCO", "C?C"])
        assert err.value.corpus_index == 1
        assert "corpus entry 1" in str(err.value)

    def test_from_json_requires_reserved_ids(self):
        with pytest.raises(ValueError):
            sk.Vocabulary.from_json({"C": 0})


class TestEncodeTokens:
    @pytest.fixture()
    def vocab(self):
        return sk.build_vocabulary(["CCO"])

    def test_padding(self, vocab):
        assert sk.encode_tokens("CCO", vocab, 4) == [2, 2, 3, 0]

    def test_oov_maps_to_unk(self, vocab):
        assert sk.encode_tokens("CN", vocab, 2) == [2, 1]

    def test_truncation(self, vocab):
        assert sk.encode_tokens("CCO", vocab, 2) == [2, 2]

    def test_max_len_validation(self, vocab):
        with pytest.raises(ValueError):
            sk.encode_tokens("C", vocab, 0)

    @given(st.integers(min_value=0, max_value=len(POOL) - 1), st.integers(min_value=1, max_value=120))
    @settings(max_examples=60, deadline=None)
    def test_length_is_exact(self, pool_idx, max_len):
        vocab = sk.build_vocabulary(["CCO"])
        assert len(sk.encode_tokens(POOL[pool_idx], vocab, max_len)) == max_len
