import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molseq import smiles as sk
from molseq.data import load_smiles_pool

from reference import adjacency, canonical_ranks, reference_parse

POOL = load_smiles_pool()


C = ("C", False, 0, -1)  # an organic-subset carbon: implicit H count


def molecule(atoms: list[tuple[str, bool, int, int]], bonds: list[tuple[int, int, int]]) -> sk.Molecule:
    """A hand-built molecule: atom invariants (element, aromatic, charge, H count or -1) and (a, b, code) bonds."""
    return sk.Molecule(atoms, adjacency(len(atoms), bonds))


def random_molecule(rng: np.random.Generator, n_atoms: int) -> sk.Molecule:
    """Random aliphatic molecule: a tree plus up to one ring edge."""
    elements = ["C", "C", "C", "C", "N", "O", "S", "P", "F", "Cl", "Br"]
    codes = [1] * 4 + [2, 3]  # single, double, triple
    atoms, bonds = [], []
    for i in range(n_atoms):
        charge = int(rng.integers(-1, 2)) if rng.random() < 0.08 else 0
        h_count = int(rng.integers(0, 3)) if rng.random() < 0.15 else -1
        element = elements[int(rng.integers(len(elements)))]
        if charge != 0 and h_count < 0:
            h_count = 0  # charged atoms must be written in brackets anyway
        atoms.append((element, False, charge, h_count))
        if i > 0:
            parent = int(rng.integers(i))
            bonds.append((parent, i, codes[int(rng.integers(len(codes)))]))
    if n_atoms >= 4 and rng.random() < 0.5:
        for _ in range(4):
            a, b = sorted(int(x) for x in rng.choice(n_atoms, size=2, replace=False))
            if all({a, b} != {x, y} for x, y, _ in bonds):
                bonds.append((a, b, 1))
                break
    return molecule(atoms, bonds)


def fully_discriminated(mol: sk.Molecule) -> bool:
    ranks = canonical_ranks(mol)
    return len(set(ranks)) == len(ranks)


def bond_codes(mol: sk.Molecule) -> dict[tuple[int, int], int]:
    """Each bond once, as {(low atom, high atom): code}, read from ``adj``.

    Asserts that ``adj`` holds every bond exactly once at each of its two
    atoms, with one code, and no bond from an atom to itself.
    """
    ends = sorted((a, b, code) for a, pairs in enumerate(mol.adj) for b, code in pairs)
    codes = {(a, b): code for a, b, code in ends if a < b}
    assert ends == sorted([(a, b, code) for (a, b), code in codes.items()]
                          + [(b, a, code) for (a, b), code in codes.items()])
    return codes


def brute_isomorphic(g1: sk.Molecule, g2: sk.Molecule) -> bool:
    """Exhaustive permutation check; only feasible for small molecules."""
    n = len(g1.invariants)
    bonds1, bonds2 = bond_codes(g1), bond_codes(g2)
    if n != len(g2.invariants) or len(bonds1) != len(bonds2):
        return False
    if sorted(g1.invariants) != sorted(g2.invariants):
        return False
    for perm in itertools.permutations(range(n)):
        if any(g1.invariants[i] != g2.invariants[perm[i]] for i in range(n)):
            continue
        mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b])): code for (a, b), code in bonds1.items()}
        if mapped == bonds2:
            return True
    return False


class TestTokenize:
    def test_simple_atoms(self):
        assert sk.tokenize("CCO") == ["C", "C", "O"]

    def test_longest_match_chlorine(self):
        assert sk.tokenize("Clc1ccccc1") == ["Cl", "c", "1", "c", "c", "c", "c", "c", "1"]

    def test_bracket_atom_is_one_token(self):
        assert sk.tokenize("C(=O)[O-]") == ["C", "(", "=", "O", ")", "[O-]"]

    def test_percent_ring_token(self):
        assert sk.tokenize("C%12CC%12") == ["C", "%12", "C", "C", "%12"]

    @pytest.mark.parametrize("smiles", POOL)
    def test_round_trip_over_pool(self, smiles):
        assert "".join(sk.tokenize(smiles)) == smiles

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
        assert "".join(sk.tokenize(rewrite)) == rewrite


class TestParse:
    def test_linear(self):
        g = sk.parse("CCO")
        assert g.invariants == [C, C, ("O", False, 0, -1)]
        assert [sk._atom_token(*inv) for inv in g.invariants] == ["C", "C", "O"]
        assert g.adj == [[(1, 1)], [(0, 1), (2, 1)], [(1, 1)]]

    @pytest.mark.parametrize("lexeme", sorted(sk._ORGANIC_INVARIANT))
    def test_organic_atom_is_written_as_read(self, lexeme):
        # The writer renders each atom from its invariant; an organic atom comes back as its own lexeme.
        assert sk.write_smiles(sk.parse(lexeme)) == lexeme

    def test_ring_closure_triangle(self):
        g = sk.parse("C1CC1")
        assert len(g.invariants) == 3
        # The closure bond is read last, so it ends each of its atoms' lists.
        assert g.adj == [[(1, 1), (2, 1)], [(0, 1), (2, 1)], [(1, 1), (0, 1)]]
        assert set(bond_codes(g)) == {(0, 1), (1, 2), (0, 2)}

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

    def test_empty_graph_not_written(self):
        with pytest.raises(sk.SmilesError, match="^cannot write an empty graph$"):
            sk.write_smiles(molecule([], []))

    @pytest.mark.parametrize("perm", [[0, 1], [0, 0, 1], [1, 2, 3]])
    def test_permutation_checked(self, perm):
        with pytest.raises(ValueError, match="^perm must be a permutation of the atom indices$"):
            sk.permute_atoms(sk.parse("CCO"), perm)

    @pytest.mark.parametrize("priority", [[0], [2, 1, 0, 5, 9]])
    def test_priority_length_checked(self, priority):
        message = f"^priority must give one value per atom, got {len(priority)} for 3 atoms$"
        with pytest.raises(ValueError, match=message):
            sk.write_smiles(sk.parse("CCO"), priority)

    @given(st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(st.integers(min_value=0, max_value=2**31 - 1), st.permutations(range(n)))))
    @settings(max_examples=200, deadline=None)
    def test_permute_maps_each_neighbor_list(self, case):
        # Each atom keeps its neighbors, relabelled, in the order their bonds were read.
        seed, perm = case
        mol = random_molecule(np.random.default_rng(seed), len(perm))
        moved = sk.permute_atoms(mol, perm)
        for a, pairs in enumerate(mol.adj):
            assert moved.adj[perm[a]] == [(perm[b], code) for b, code in pairs]
            assert moved.invariants[perm[a]] == mol.invariants[a]

    @pytest.mark.parametrize("bad", ["C/C=C/C", "C[C@H](N)C", "[13CH3]C"])
    def test_stereo_and_isotopes_rejected(self, bad):
        with pytest.raises(sk.StereoUnsupported):
            sk.parse(bad)

    def test_aromatic_ring(self):
        g = sk.parse("c1ccccc1")
        assert g.invariants == [("C", True, 0, -1)] * 6
        assert g.adj == [[(1, 4), (5, 4)], *([(i - 1, 4), (i + 1, 4)] for i in range(1, 5)), [(4, 4), (0, 4)]]

    def test_bracket_attributes(self):
        g = sk.parse("[NH4+].[O-].[Fe+2].[nH]")
        assert g.invariants == [("N", False, 1, 4), ("O", False, -1, 0), ("Fe", False, 2, 0), ("N", True, 0, 1)]
        assert [sk._atom_token(*inv) for inv in g.invariants] == ["[NH4+]", "[O-]", "[Fe+2]", "[nH]"]
        assert g.adj == [[], [], [], []]

    def test_double_minus_charge(self):
        g = sk.parse("[O--]")
        assert g.invariants[0][2] == -2

    def test_dangling_bond(self):
        with pytest.raises(sk.SmilesError):
            sk.parse("CC=")

    def test_explicit_bond_orders(self):
        g = sk.parse("C=C#N")
        assert g.adj == [[(1, 2)], [(0, 2), (2, 3)], [(1, 3)]]

    def test_branch_bond(self):
        g = sk.parse("CC(=O)O")
        assert g.adj == [[(1, 1)], [(0, 1), (2, 2), (3, 1)], [(1, 2)], [(1, 1)]]
        codes = bond_codes(g)
        assert codes[(1, 2)] == 2
        assert codes[(1, 3)] == 1


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


def chain_graph(atoms: list[tuple[str, bool, int, int]], bonds: list[tuple[int, int]]) -> sk.Molecule:
    return molecule(atoms, [(a, b, 1) for a, b in bonds])


class TestLongChains:
    """Chains far deeper than the interpreter's recursion limit."""

    N = 5000

    def test_linear_chain(self):
        g = chain_graph([C] * self.N, [(i, i + 1) for i in range(self.N - 1)])
        assert sk.write_smiles(g) == "C" * self.N

    def test_distinct_charges_canonicalize(self):
        # Distinct charges rank every atom apart at once, so refinement is a
        # single pass and canonicalize walks the whole chain from charge 0.
        bonds = [(i, i + 1) for i in range(self.N - 1)]
        expected = "C[C+]" + "".join(f"[C+{q}]" for q in range(2, self.N))
        for charges in (range(self.N), range(self.N - 1, -1, -1)):
            assert sk.canonicalize(chain_graph([("C", False, q, -1) for q in charges], bonds)) == expected

    def test_parse_permute_canonicalize(self):
        # Parsing and relabelling add one bond at a time, so each must stay linear in the bond count.
        text = "C[C+]" + "".join(f"[C+{q}]" for q in range(2, self.N))
        graph = sk.parse(text)
        assert (len(graph.invariants), len(bond_codes(graph))) == (self.N, self.N - 1)
        perm = [int(i) for i in np.random.default_rng(3).permutation(self.N)]
        assert sk.canonicalize(sk.permute_atoms(graph, perm)) == text

    def test_comb_closes_each_branch(self):
        # Backbone atom 2i carries a methyl 2i+1, which has priority over the
        # next backbone atom 2i+2 and so is written as a branch.
        n = self.N // 2
        bonds = [(2 * i, 2 * i + 1) for i in range(n)] + [(2 * i, 2 * i + 2) for i in range(n - 1)]
        g = chain_graph([C] * (2 * n), bonds)
        assert sk.write_smiles(g) == "C(C)" * (n - 1) + "CC"

    def test_branches_nest_to_full_depth(self):
        # Backbone 0..n-1 with methyls n..2n-1: the backbone continuation has
        # priority, so each one opens a branch that closes only at the end.
        n = self.N // 2
        bonds = [(i, i + 1) for i in range(n - 1)] + [(i, n + i) for i in range(n)]
        g = chain_graph([C] * (2 * n), bonds)
        assert sk.write_smiles(g) == "C(" * (n - 1) + "CC" + ")C" * (n - 1)


def nested_rings(k: int) -> sk.Molecule:
    """A chain of 2k+2 atoms with ring bonds (i, 2k+1-i): all k are open at once when written from atom 0."""
    n = 2 * k + 2
    return chain_graph([C] * n,
                       [(i, i + 1) for i in range(n - 1)] + [(i, n - 1 - i) for i in range(k)])


class TestRingNumbers:
    def test_99_open_rings_round_trip(self):
        g = nested_rings(99)
        text = sk.write_smiles(g)
        assert "%99" in text
        assert set(bond_codes(sk.parse(text))) == set(bond_codes(g))

    def test_100_open_rings_raise(self):
        g = nested_rings(100)
        assert len(bond_codes(g)) == 301
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
# and message, or the atoms as (element, aromatic, charge, H count or -1).
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
    ("Br[Br]", [("Br", False, 0, -1), ("Br", False, 0, 0)]),
    ("[N]=[N+]=[N-]", [("N", False, 0, 0), ("N", False, 1, 0), ("N", False, -1, 0)]),
    # A lexing error anywhere wins over an earlier parse error; a parse error
    # with nothing wrong after it stands.
    ("C)C$", ("UnexpectedCharacter", 3, "unexpected character '$' (column 3)")),
    ("(C[", ("UnterminatedBracket", 2, "unterminated bracket atom (column 2)")),
    ("C==C@", ("UnexpectedCharacter", 4, "unexpected character '@' (column 4)")),
    ("C.(C)", ("SmilesError", 2, "branch must follow an atom (column 2)")),
    # A bond symbol with no atom after it, and a ring closure whose two digits name different orders.
    ("C=1CC-1", ("UnmatchedRingBond", None, "ring bond 1 has conflicting bond orders")),
    ("C(C=)C", ("SmilesError", 4, "dangling bond before branch close (column 4)")),
    ("C=.C", ("SmilesError", 2, "dangling bond before fragment separator (column 2)")),
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
            assert graph.invariants == expected

    @given(st.lists(st.one_of(st.sampled_from(SMILES_PIECES), st.characters()), max_size=30).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_any_text_lexes_to_itself_or_raises(self, text):
        try:
            tokens = sk.tokenize(text)
        except sk.SmilesError:
            return
        assert "".join(tokens) == text


def outcome(fn, *args):
    """What a call gives: its value, or the error's class, column and message."""
    try:
        return fn(*args)
    except sk.SmilesError as exc:
        return type(exc).__name__, exc.position, str(exc)


class TestReaderMatchesReference:
    """The one-pass reader against the tokenize-then-walk parser it replaced."""

    @given(st.lists(st.one_of(st.sampled_from(SMILES_PIECES), st.characters()), max_size=30).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_same_outcome(self, text):
        assert outcome(sk.parse, text) == outcome(reference_parse, text)
        mol = outcome(reference_parse, text)
        expected = outcome(sk.canonicalize, mol) if isinstance(mol, sk.Molecule) else mol
        assert outcome(sk.canonical_smiles, text) == expected

    @pytest.mark.parametrize("text", [text for text, _ in LEXER_TABLE], ids=[repr(text) for text, _ in LEXER_TABLE])
    def test_lexer_table_is_the_reference_outcome(self, text):
        assert outcome(sk.parse, text) == outcome(reference_parse, text)


class TestEntryPointsAgree:
    """canonicalize on a molecule and canonical_smiles on its SMILES give one string."""

    @pytest.mark.parametrize("smiles", POOL)
    def test_pool_and_rewrites(self, smiles):
        graph = sk.parse(smiles)
        rng = np.random.default_rng(len(smiles))
        for g in (graph, *(sk.parse(sk.random_smiles(graph, rng)) for _ in range(3))):
            assert sk.canonicalize(g) == sk.canonical_smiles(sk.write_smiles(g)) == sk.canonical_smiles(smiles)

    def test_built_graphs(self):
        graph = molecule([("N", False, 1, 3), C, ("C", False, 0, 2), ("O", False, -1, -1), ("C", True, 0, -1),
                          ("Fe", False, 2, -1), ("S", False, 0, 0)],
                         [(0, 1, 1), (1, 2, 4),  # aromatic bond between non-aromatic atoms
                          (2, 3, 1), (2, 4, 2), (4, 6, 1), (6, 1, 3)])
        text = sk.write_smiles(graph)
        assert ":" in text and "[NH3+]" in text and "[CH2]" in text and "[Fe+2]" in text and "[S]" in text
        assert sk.canonicalize(graph) == sk.canonical_smiles(text)
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert sk.canonicalize(graph) == sk.canonical_smiles(sk.random_smiles(graph, rng))

    def test_random_built_graphs(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            g = random_molecule(rng, int(rng.integers(1, 12)))
            assert sk.canonicalize(g) == sk.canonical_smiles(sk.write_smiles(g))


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
