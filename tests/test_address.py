import pytest
from hypothesis import given

from opetopic.address import EMPTY, Address, parse_address, read_address
from opetopic.errors import ParseError
from opetopic.opetope import enumerate_opetopes

from conftest import addresses


def nested(address):
    """Oracle view: an address as a plain nested tuple."""
    return tuple(nested(entry) for entry in address)


STAR = Address((EMPTY,))


class TestConcat:
    def test_identity_case(self):
        assert EMPTY.concat(EMPTY) == EMPTY

    def test_base_words(self):
        assert STAR.concat(STAR) == parse_address("[**]")

    def test_sequence_concatenation(self):
        left = parse_address("[[*]]")
        right = parse_address("[[][**]]")
        expected = Address(tuple(left) + tuple(right))
        assert left.concat(right) == expected
        assert str(left.concat(right)) == "[[*][][**]]"

    @given(addresses(), addresses(), addresses())
    def test_associative_with_unit(self, p, q, r):
        assert p.concat(q).concat(r) == p.concat(q.concat(r))
        assert EMPTY.concat(p) == p
        assert p.concat(EMPTY) == p
        assert len(p.concat(q)) == len(p) + len(q)


class TestCompare:
    def test_prefix_before_extension(self):
        assert EMPTY < STAR

    def test_reflexive(self):
        assert STAR == STAR and not STAR < STAR

    def test_recursive_lexicographic(self):
        assert parse_address("[[*]]") < parse_address("[[**]]")

    @given(addresses(), addresses())
    def test_matches_nested_tuple_order(self, p, q):
        if nested(p) < nested(q):
            assert p < q and p != q
        elif nested(p) == nested(q):
            assert p == q and not p < q
        else:
            assert q < p and p != q

    @given(addresses(), addresses(), addresses())
    def test_total_order(self, p, q, r):
        assert (p < q) + (p == q) + (q < p) == 1
        if (p < q or p == q) and (q < r or q == r):
            assert p < r or p == r

    def test_sorting_deterministic(self):
        batch = [parse_address(s) for s in ["[[*]]", "[]", "[*]", "[**]", "[[]]"]]
        once = sorted(batch)
        again = sorted(reversed(batch))
        assert once == again
        # [*] and [[]] denote the same value, so it appears twice
        assert [str(a) for a in once] == ["[]", "[*]", "[*]", "[**]", "[[*]]"]


class TestParsePrint:
    def test_empty(self):
        assert parse_address("[]") == EMPTY

    def test_star_sugar(self):
        assert parse_address("[**]") == Address((EMPTY, EMPTY))

    def test_canonical_uses_sugar_only_at_base_level(self):
        value = parse_address("[[*][]]")
        assert parse_address("[[*]*]") == value
        assert str(value) == "[[*][]]"

    def test_base_level_sugar(self):
        assert str(Address((EMPTY, EMPTY))) == "[**]"

    @given(addresses())
    def test_parse_print_roundtrip(self, address):
        assert parse_address(str(address)) == address

    @given(addresses())
    def test_print_parse_idempotent(self, address):
        text = str(address)
        assert str(parse_address(text)) == text

    def test_whitespace_ignored(self):
        assert parse_address(" [ * [ ] ] ") == parse_address("[*[]]")

    @pytest.mark.parametrize("bad", ["", "[", "]", "[*", "[x]", "[]]", "**"])
    def test_errors_report_position(self, bad):
        with pytest.raises(ParseError) as info:
            parse_address(bad)
        assert "expected" in str(info.value)

    def test_error_positions_are_exact(self):
        with pytest.raises(ParseError) as info:
            parse_address("[*x]")
        assert info.value.line == 1
        assert info.value.column == 3

    def test_deep_nesting_roundtrip(self):
        address = parse_address("[" * 3000 + "]" * 3000)
        text = str(address)
        assert text == "[" * 2999 + "*" + "]" * 2999
        # compared by print: tuple equality this deep exceeds the recursion limit
        again = parse_address(text)
        assert str(again) == text

    def test_one_table_reads_equal_addresses_as_one_object(self):
        def error(index, expected):
            return ParseError(f"expected {expected}", 1, index + 1)

        interned = {}
        deep = "[" * 1200 + "]" * 1200
        spaced = "[" * 1200 + " " + "]" * 1200
        first, _ = read_address(deep, 0, error, interned)
        second, _ = read_address(spaced, 0, error, interned)
        assert first is second
        starred, _ = read_address("[[] [*] *]", 0, error, interned)
        assert starred[0] is EMPTY and starred[2] is EMPTY
        assert starred == parse_address("[[] [*] *]")


class TestStructure:
    def test_child_and_parent(self):
        address = parse_address("[*[**]]")
        child = address.child(STAR)
        assert child.parent == address
        assert child.last == STAR


def assert_hereditary(address):
    """Every entry of ``address``, at every depth, is an Address."""
    pending = [address]
    while pending:
        current = pending.pop()
        assert isinstance(current, Address), repr(current)
        pending.extend(current)


class TestTrustedConstruction:
    def test_public_construction_validates(self):
        with pytest.raises(TypeError):
            Address((1,))
        with pytest.raises(TypeError):
            Address((EMPTY, ()))

    @pytest.mark.parametrize("dim", [4, 5])
    def test_enumerated_addresses_are_hereditary(self, dim):
        for omega in enumerate_opetopes(dim, 2):
            for shape in (omega, omega.target()):
                if shape.dim < 2:
                    continue
                rho = shape.readdress()
                for address in [
                    *shape.node_addresses(),
                    *shape.leaf_addresses(),
                    *rho,
                    *rho.values(),
                ]:
                    assert_hereditary(address)
