"""Structure files: round trips, order normalization, rejection of
malformed or axiom-violating input, and the records written from tuples."""

import json

import pytest

from posemi import (
    LeSemigroup,
    OrderedSemigroup,
    PoeSemigroup,
    StructureFileError,
    from_payload,
    load,
    save,
    storage,
    to_payload,
)
from posemi.canon import le_digest, ordered_digest, part_text
from posemi.cli import _tuples
from posemi.storage import le_record, ordered_record

from conftest import FIXTURES, make_n2, make_s2l


def write_json(tmp_path, obj, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestRoundTrip:
    def test_ordered(self, tmp_path, n2):
        path = tmp_path / "n2.json"
        save(n2, path, names=["0", "a"])
        loaded = load(path)
        assert loaded.structure == n2
        assert loaded.kind == "ordered_semigroup"
        assert loaded.names == ("0", "a")

    def test_poe(self, tmp_path):
        poe = PoeSemigroup([[0, 0], [0, 0]], [[1, 1], [0, 1]])
        path = tmp_path / "poe.json"
        save(poe, path)
        loaded = load(path)
        assert loaded.kind == "poe_semigroup"
        assert loaded.structure == poe
        assert loaded.structure.top == 1

    def test_le(self, tmp_path, l3meet):
        path = tmp_path / "l3meet.json"
        save(l3meet, path, names=["0", "a", "e"])
        loaded = load(path)
        assert loaded.structure == l3meet
        assert loaded.kind == "le_semigroup"

    def test_fixture_files_load_to_expected_structures(self):
        assert load(FIXTURES / "n2.json").structure == make_n2()
        assert load(FIXTURES / "s2l.json").structure == make_s2l()


class TestOrderNormalization:
    def test_reflexive_pairs_may_be_omitted(self, tmp_path):
        path = write_json(
            tmp_path,
            {
                "kind": "ordered_semigroup",
                "order": 2,
                "table": [[0, 0], [0, 0]],
                "leq": [[0, 1]],
            },
        )
        s = load(path).structure
        assert s.leq == ((True, True), (False, True))

    def test_transitive_closure_applied(self, tmp_path):
        path = write_json(
            tmp_path,
            {
                "kind": "ordered_semigroup",
                "order": 3,
                "table": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                "leq": [[0, 1], [1, 2]],
            },
        )
        s = load(path).structure
        assert s.leq[0][2]

    def test_cycle_is_rejected_as_antisymmetry_violation(self, tmp_path):
        path = write_json(
            tmp_path,
            {
                "kind": "ordered_semigroup",
                "order": 2,
                "table": [[0, 0], [0, 0]],
                "leq": [[0, 1], [1, 0]],
            },
        )
        with pytest.raises(StructureFileError, match="antisymmetry"):
            load(path)


class TestRejection:
    def test_nonassociative_table_names_triple(self, tmp_path):
        path = write_json(
            tmp_path,
            {
                "kind": "ordered_semigroup",
                "order": 2,
                "table": [[0, 1], [0, 0]],
                "leq": [],
            },
        )
        with pytest.raises(StructureFileError, match=r"associativity: \(\d"):
            load(path)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(StructureFileError, match="line 1"):
            load(path)

    def test_missing_field(self, tmp_path):
        path = write_json(tmp_path, {"kind": "ordered_semigroup", "order": 2})
        with pytest.raises(StructureFileError, match="missing field 'table'"):
            load(path)

    def test_unknown_kind(self, tmp_path):
        path = write_json(tmp_path, {"kind": "monoid", "order": 1, "table": [[0]]})
        with pytest.raises(StructureFileError, match="unknown kind"):
            load(path)

    def test_bad_matrix_entry(self, tmp_path):
        path = write_json(
            tmp_path,
            {
                "kind": "ordered_semigroup",
                "order": 2,
                "table": [[0, 5], [0, 0]],
                "leq": [],
            },
        )
        with pytest.raises(StructureFileError, match="'table'"):
            load(path)

    def test_le_missing_top(self, tmp_path, l3meet):
        payload = to_payload(l3meet)
        del payload["top"]
        path = write_json(tmp_path, payload)
        with pytest.raises(StructureFileError, match="'top'"):
            load(path)

    def test_le_broken_distributivity(self, tmp_path, l3meet):
        payload = to_payload(l3meet)
        payload["table"] = [[0, 0, 0], [0, 0, 2], [0, 0, 0]]
        path = write_json(tmp_path, payload)
        with pytest.raises(StructureFileError, match="invalid structure"):
            load(path)

    def test_poe_without_greatest_element(self, tmp_path):
        path = write_json(
            tmp_path,
            {
                "kind": "poe_semigroup",
                "order": 2,
                "table": [[0, 0], [1, 1]],
                "leq": [],
            },
        )
        with pytest.raises(StructureFileError, match="greatest"):
            load(path)

    def test_duplicate_names(self, tmp_path):
        path = write_json(
            tmp_path,
            {
                "kind": "ordered_semigroup",
                "order": 2,
                "table": [[0, 0], [0, 0]],
                "leq": [],
                "names": ["x", "x"],
            },
        )
        with pytest.raises(StructureFileError, match="names"):
            load(path)

    @pytest.mark.parametrize("name", ["", "z,0", " a", "a ", "\ta", "a\n"])
    def test_name_that_subset_cannot_address(self, tmp_path, name):
        # --subset splits at commas and strips each token
        path = write_json(
            tmp_path,
            {
                "kind": "ordered_semigroup",
                "order": 2,
                "table": [[0, 0], [0, 0]],
                "leq": [],
                "names": ["x", name],
            },
        )
        with pytest.raises(StructureFileError, match=r"field 'names'\[1\]"):
            load(path)

    def test_inner_whitespace_is_a_name(self, tmp_path):
        path = tmp_path / "s.json"
        save(make_n2(), path, names=["zero", "a b"])
        assert load(path).names == ("zero", "a b")

    def test_incompatible_order_listed(self, tmp_path):
        path = write_json(
            tmp_path,
            {
                "kind": "ordered_semigroup",
                "order": 2,
                "table": [[0, 1], [1, 0]],
                "leq": [[0, 1]],
            },
        )
        with pytest.raises(StructureFileError, match="compatibility"):
            load(path)


class TestPayloadHelpers:
    def test_from_payload_rejects_non_object(self):
        with pytest.raises(StructureFileError):
            from_payload([1, 2, 3])

    def test_le_payload_shape(self, l3null):
        payload = to_payload(l3null)
        assert payload["kind"] == "le_semigroup"
        assert payload["top"] == 2
        assert "leq" not in payload
        rebuilt = from_payload(payload)
        assert rebuilt.structure == l3null

    def test_names_length_checked(self, n2):
        with pytest.raises(ValueError):
            to_payload(n2, names=["only-one"])

    def test_names_must_be_distinct_strings(self, n2):
        with pytest.raises(ValueError, match="repeat"):
            to_payload(n2, names=["x", "x"])
        with pytest.raises(ValueError, match="string"):
            to_payload(n2, names=[0, 1])

    def test_unserializable_type(self):
        with pytest.raises(TypeError):
            to_payload(object())


@pytest.mark.parametrize("name", ["", "z,0", " a", "a ", "\ta"])
def test_save_refuses_a_name_that_subset_cannot_address(tmp_path, name):
    n2 = make_n2()
    with pytest.raises(ValueError, match="element name"):
        to_payload(n2, names=["x", name])
    path = tmp_path / "s.json"
    with pytest.raises(ValueError, match="element name"):
        save(n2, path, names=["x", name])
    assert not path.exists()


def _dumped(structure):
    """The records' oracle: `to_payload` of the structure, sorted and compact."""
    return json.dumps(to_payload(structure), sort_keys=True, separators=(",", ":"))


def _record_and_structure(kind, item):
    """The record of one `cli._tuples` item, and the structure it builds."""
    if kind == "le":
        (table, join, meet, top), _ = item
        structure = LeSemigroup(table, join, meet, top=top)
        return le_record(table, join, meet, top), structure
    return ordered_record(*item), OrderedSemigroup(*item)


class TestRecordsFromTuples:
    """`ordered_record` and `le_record` give the text `json.dumps` writes for
    `to_payload` of the structure their tuples build, without building it;
    that text is their oracle, and it loads back to the structure."""

    @pytest.mark.parametrize("kind", ["semigroup", "ordered", "le"])
    @pytest.mark.parametrize("dedup", ["none", "iso"])
    def test_orders_one_to_four(self, kind, dedup):
        items = list(_tuples(kind, range(1, 5), dedup))
        counts = {  # (none, iso)
            "semigroup": (3614, 218),
            "ordered": (108680, 4938),
            "le": (11581, 530),
        }
        assert len(items) == counts[kind][dedup == "iso"]
        for item in items:
            record, s = _record_and_structure(kind, item)
            assert record == _dumped(s)
            assert from_payload(json.loads(record)).structure == s

    @pytest.mark.parametrize("kind", ["ordered", "le"])
    def test_save_writes_the_record(self, tmp_path, kind):
        # a saved file is one line, the record enumerate prints and a newline
        path = tmp_path / "s.json"
        for item in _tuples(kind, range(1, 4), "none"):
            record, s = _record_and_structure(kind, item)
            save(s, path)
            assert path.read_text(encoding="utf-8") == record + "\n"

    @pytest.mark.parametrize(
        "kind,caches",
        [("ordered", [storage._strict_pairs, part_text]), ("le", [part_text])],
    )
    def test_alternating_tables_and_orders(self, kind, caches):
        # the raw order-3 stream in order, then its first and last items in
        # turn, so the tables, orders and lattices alternate: each cache
        # must miss as well as hit, and every record match its oracle
        items = list(_tuples(kind, [3], "none"))
        turns = [x for pair in zip(items, reversed(items)) for x in pair]
        for cache in caches:
            cache.cache_clear()
        for item in items + turns:
            record, s = _record_and_structure(kind, item)
            assert record == _dumped(s)
        for cache in caches:
            info = cache.cache_info()
            assert info.hits and info.misses, (cache, info)

    @pytest.mark.parametrize(
        "kind,dedup,misses",
        [
            ("ordered", "none", 113),  # once per table
            ("ordered", "iso", 24),
            # at most twice per labeled lattice, its join and meet; the six
            # lattices are chains, and consecutive ones share some text
            ("le", "none", 10),
            ("le", "iso", 10),
        ],
    )
    def test_ids_and_records_share_the_part_text(self, kind, dedup, misses):
        items = list(_tuples(kind, [3], dedup))
        part_text.cache_clear()
        for item in items:
            if kind == "le":
                (table, join, meet, top), _ = item
                le_digest(table, join, meet)
                le_record(table, join, meet, top)
            else:
                ordered_digest(*item)
                ordered_record(*item)
        calls = 2 * len(items)  # the table's text in an id and in a record
        if kind == "le":
            lattices = {(join, meet) for (_, join, meet, _), _ in items}
            assert len(lattices) == 6 and misses <= 2 * len(lattices)
            calls *= 2  # the join's and the meet's
        info = part_text.cache_info()
        assert (info.misses, info.hits) == (misses, calls - misses)


class TestLoadedHelpers:
    def test_labels_and_lookup(self):
        loaded = load(FIXTURES / "n2.json")
        assert loaded.label(1) == "a"
        assert loaded.index_of("a") == 1
        assert loaded.index_of("0") == 0
        assert loaded.index_of("1") == 1

    def test_unknown_element(self):
        loaded = load(FIXTURES / "n2.json")
        with pytest.raises(StructureFileError, match="unknown element"):
            loaded.index_of("zz")
        with pytest.raises(StructureFileError, match="out of range"):
            loaded.index_of("7")

    def test_nameless_labels_are_indices(self, tmp_path, s2l):
        path = tmp_path / "s.json"
        save(s2l, path)
        loaded = load(path)
        assert loaded.label(1) == "1"
        assert loaded.index_of("1") == 1
