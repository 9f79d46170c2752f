import json

import pytest

from fintop import (
    CarrierTooLarge,
    DocumentError,
    FiniteMap,
    InvalidTopology,
    MetricTable,
    discrete,
    emit_family,
    emit_map,
    emit_space,
    parse_family,
    parse_map,
    parse_metric,
    parse_space,
)
from fintop import docio
from fintop.enumeration import all_spaces


class TestSpaceDocuments:
    def test_parse(self, sierpinski):
        s = parse_space('{"n":2,"opens":[[],[1],[0,1]]}')
        assert s == sierpinski

    def test_round_trip(self):
        for n in range(4):
            for s in all_spaces(n):
                text = emit_space(s)
                assert parse_space(text) == s
                assert emit_space(parse_space(text)) == text

    def test_name_field(self, sierpinski):
        text = emit_space(sierpinski, "sierpinski")
        obj = json.loads(text)
        assert obj["name"] == "sierpinski"
        assert parse_space(text) == sierpinski

    def test_bad_json(self):
        with pytest.raises(json.JSONDecodeError):
            parse_space("{not json")

    def test_bad_shape(self):
        with pytest.raises(DocumentError):
            parse_space('{"opens":[[]]}')
        with pytest.raises(DocumentError):
            parse_space('{"n":2}')
        with pytest.raises(DocumentError):
            parse_space('{"n":2,"opens":[["x"]]}')
        with pytest.raises(DocumentError):
            parse_space('{"n":2,"opens":[[5]]}')
        with pytest.raises(DocumentError):
            parse_space('{"n":-1,"opens":[]}')

    @pytest.mark.parametrize(
        "point,message",
        [
            ("true", "opens[1]: bad point True"),
            ("1.5", "opens[1]: bad point 1.5"),
            ("-1", "opens[1]: point -1 outside carrier of size 2"),
            ("2", "opens[1]: point 2 outside carrier of size 2"),
        ],
    )
    def test_bad_point_messages(self, point, message):
        with pytest.raises(DocumentError) as err:
            parse_space('{"n":2,"opens":[[],[0,%s],[0,1]]}' % point)
        assert str(err.value) == message

    def test_invalid_topology(self):
        with pytest.raises(InvalidTopology) as err:
            parse_space('{"n":1,"opens":[[0]]}')
        assert {v.kind for v in err.value.violations} == {"MissingEmpty"}

    def test_carrier_cap_before_parsing_points(self, monkeypatch):
        def no_parse(*args):
            raise AssertionError("point list parsed before the carrier cap")

        monkeypatch.setattr(docio, "_parse_point_lists", no_parse)
        huge = '{"n":%d,"opens":[[],[%d]]}' % (10**8, 10**8 - 1)
        with pytest.raises(CarrierTooLarge):
            parse_space(huge)
        with pytest.raises(CarrierTooLarge):
            parse_space('{"n":25,"opens":[[]]}')
        with pytest.raises(CarrierTooLarge):
            parse_family('{"n":%d,"members":[[%d]]}' % (10**8, 10**8 - 1))


class TestMapDocuments:
    def test_round_trip(self, sierpinski):
        f = FiniteMap.of(2, 2, (1, 1))
        text = emit_map(sierpinski, discrete(2), f)
        dom, cod, g = parse_map(text)
        assert dom == sierpinski and cod == discrete(2) and g == f
        assert emit_map(dom, cod, g) == text

    def test_bad_table(self, sierpinski):
        base = {
            "dom": {"n": 2, "opens": [[], [1], [0, 1]]},
            "cod": {"n": 2, "opens": [[], [1], [0, 1]]},
        }
        with pytest.raises(DocumentError):
            parse_map({**base, "table": [0]})
        with pytest.raises(DocumentError):
            parse_map({**base, "table": [0, 5]})
        with pytest.raises(DocumentError):
            parse_map(base)


class TestFamilyDocuments:
    def test_round_trip(self):
        n, fam = parse_family('{"n":3,"members":[[1,0],[2]]}')
        assert n == 3 and fam.masks == (0b011, 0b100)
        text = emit_family(fam)
        assert parse_family(text) == (3, fam)
        assert emit_family(parse_family(text)[1]) == text

    def test_canonicalizes(self):
        _, fam = parse_family('{"n":2,"members":[[1],[1],[0,1]]}')
        assert fam.masks == (0b10, 0b11)

    def test_bad_shape(self):
        with pytest.raises(DocumentError):
            parse_family('{"n":2}')


class TestMetricDocuments:
    def test_parse(self):
        rows = parse_metric('{"d":[[0,1],[1,0]]}')
        assert rows == [[0, 1], [1, 0]]
        assert MetricTable.of(rows).d == ((0, 1), (1, 0))

    def test_bad_shape(self):
        with pytest.raises(DocumentError):
            parse_metric('{"d":[[0,1]]}')
        with pytest.raises(DocumentError):
            parse_metric('{"d":[[0,-1],[-1,0]]}')
        with pytest.raises(DocumentError):
            parse_metric("{}")


class TestCanonicalOutput:
    def test_emit_is_deterministic(self, sierpinski):
        assert emit_space(sierpinski) == emit_space(sierpinski)
        assert emit_space(sierpinski) == '{"n":2,"opens":[[],[1],[0,1]]}'

    def test_objects_are_the_emitted_documents(self, sierpinski):
        # The parsers take the objects as they are; emitting is
        # canonical_json of the same object.
        f = FiniteMap.of(2, 2, (1, 1))
        _, fam = parse_family('{"n":3,"members":[[1,0],[2]]}')
        space_obj = docio.space_obj(sierpinski, "s")
        map_obj = docio.map_obj(sierpinski, discrete(2), f)
        family_obj = docio.family_obj(fam)
        assert space_obj == {"n": 2, "opens": [[], [1], [0, 1]], "name": "s"}
        assert parse_space(space_obj) == sierpinski
        assert parse_map(map_obj) == (sierpinski, discrete(2), f)
        assert parse_family(family_obj) == (3, fam)
        assert emit_space(sierpinski, "s") == docio.canonical_json(space_obj)
        assert emit_map(sierpinski, discrete(2), f) == docio.canonical_json(map_obj)
        assert emit_family(fam) == docio.canonical_json(family_obj)
