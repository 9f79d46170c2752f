"""Every record class keeps the repr, hash, equality, immutability and field
order that its callers and the goldens rely on, one case per class."""

import copy
import pickle

import pytest

from fintop import (
    EnumConfig,
    Family,
    FiniteMap,
    MetricTable,
    PairEncoding,
    Partition,
    PointSet,
    check_base_conditions,
    check_map,
    classify_cover,
    classify_pair,
    compactness_report,
    density_report,
    enumerate_topologies,
    point_roles,
    separation_report,
    space,
)
from fintop.space import AxiomViolation


def _sierpinski():
    return space(2, [0b00, 0b10, 0b11])


# class name -> (builder, repr, __slots__, fields read by ==, hash and repr)
RECORDS = {
    "PointSet": (
        lambda: PointSet(0b101, 3),
        "PointSet({0,2}, n=3)",
        ("bits", "n"),
        ("bits", "n"),
    ),
    "Family": (
        lambda: Family.of(2, [0, 2, 3]),
        "Family([{},{1},{0,1}], n=2)",
        ("n", "_masks", "_mask_set"),
        ("n", "_masks"),
    ),
    "Partition": (
        lambda: Partition.of(3, [[0, 2], [1]]),
        "Partition(blocks=(PointSet({0,2}, n=3), PointSet({1}, n=3)), n=3)",
        ("blocks", "n"),
        ("blocks", "n"),
    ),
    "AxiomViolation": (
        lambda: AxiomViolation("NotUnionClosed", (PointSet(1, 2), PointSet(2, 2))),
        "AxiomViolation(kind='NotUnionClosed', witness=(PointSet({0}, n=2), PointSet({1}, n=2)))",
        ("kind", "witness"),
        ("kind", "witness"),
    ),
    "TopSpace": (
        _sierpinski,
        "TopSpace(n=2, opens=Family([{},{1},{0,1}], n=2))",
        ("n", "opens", "ups", "_closeds", "_downs"),
        ("n", "opens"),
    ),
    "FiniteMap": (
        lambda: FiniteMap(3, 2, (0, 1, 1)),
        "FiniteMap(dom_n=3, cod_n=2, table=(0, 1, 1))",
        ("dom_n", "cod_n", "table"),
        ("dom_n", "cod_n", "table"),
    ),
    "MapReport": (
        lambda: check_map(FiniteMap(2, 2, (1, 0)), _sierpinski(), _sierpinski()),
        "MapReport(continuous=False, open_map=False, closed_map=False, injective=True, "
        "surjective=True, homeomorphism=False, embedding=False)",
        ("continuous", "open_map", "closed_map", "injective", "surjective", "homeomorphism",
         "embedding"),
        ("continuous", "open_map", "closed_map", "injective", "surjective", "homeomorphism",
         "embedding"),
    ),
    "RoleFlags": (
        lambda: point_roles(_sierpinski(), PointSet(0b01, 2), 0),
        "RoleFlags(interior=False, exterior=False, boundary=True, adherent=True, limit=False, "
        "isolated=True)",
        ("interior", "exterior", "boundary", "adherent", "limit", "isolated"),
        ("interior", "exterior", "boundary", "adherent", "limit", "isolated"),
    ),
    "DensityReport": (
        lambda: density_report(_sierpinski(), PointSet(0b01, 2)),
        "DensityReport(dense=False, dense_in_itself=False, nowhere_dense=True, perfect=False)",
        ("dense", "dense_in_itself", "nowhere_dense", "perfect"),
        ("dense", "dense_in_itself", "nowhere_dense", "perfect"),
    ),
    "PairClass": (
        lambda: classify_pair(_sierpinski(), 0, 1),
        "PairClass(indistinguishable=False, partially_distinguishable=True, "
        "distinguishable=False, separated=False)",
        ("indistinguishable", "partially_distinguishable", "distinguishable", "separated"),
        ("indistinguishable", "partially_distinguishable", "distinguishable", "separated"),
    ),
    "SeparationReport": (
        lambda: separation_report(_sierpinski()),
        "SeparationReport(t0=True, t1=False, t2=False, t3=False, t4=True, regular=False, "
        "normal=False)",
        ("t0", "t1", "t2", "t3", "t4", "regular", "normal"),
        ("t0", "t1", "t2", "t3", "t4", "regular", "normal"),
    ),
    "CompactnessReport": (
        lambda: compactness_report(_sierpinski()),
        "CompactnessReport(compact=True, locally_compact=True)",
        ("compact", "locally_compact"),
        ("compact", "locally_compact"),
    ),
    "BaseProblem": (
        lambda: check_base_conditions(2, Family.of(2, [1])),
        "BaseProblem(kind='NotCovering', witness=())",
        ("kind", "witness"),
        ("kind", "witness"),
    ),
    "PairEncoding": (
        lambda: PairEncoding(2, 3),
        "PairEncoding(n1=2, n2=3)",
        ("n1", "n2"),
        ("n1", "n2"),
    ),
    "MetricTable": (
        lambda: MetricTable.of([[0, 1], [1, 0]]),
        "MetricTable(n=2, d=((0, 1), (1, 0)))",
        ("n", "d"),
        ("n", "d"),
    ),
    "CoverReport": (
        lambda: classify_cover(_sierpinski(), Family.of(2, [2, 3]), PointSet(3, 2)),
        "CoverReport(is_cover=True, open_cover=True, closed_cover=False, locally_finite=True, "
        "fundamental=True)",
        ("is_cover", "open_cover", "closed_cover", "locally_finite", "fundamental"),
        ("is_cover", "open_cover", "closed_cover", "locally_finite", "fundamental"),
    ),
    "EnumConfig": (
        lambda: EnumConfig(3, "up_to_homeomorphism", "t0"),
        "EnumConfig(n=3, mode='up_to_homeomorphism', predicate='t0')",
        ("n", "mode", "predicate"),
        ("n", "mode", "predicate"),
    ),
}
#: The records built by the positional ``_Record.__init__`` alone.
FIELD_ONLY = sorted([
    "BaseProblem", "CompactnessReport", "CoverReport", "DensityReport", "MapReport",
    "PairClass", "PairEncoding", "RoleFlags", "SeparationReport",
])


def _build(name):
    obj = RECORDS[name][0]()
    assert type(obj).__name__ == name
    return obj


def _with(obj, name, value):
    """A copy of `obj` whose field `name` holds `value`, past __init__."""
    twin = copy.copy(obj)
    object.__setattr__(twin, name, value)
    return twin


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_and_slots(name):
    _, text, slots, _ = RECORDS[name]
    obj = _build(name)
    assert repr(obj) == text
    assert type(obj).__slots__ == slots
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_hash_is_the_hash_of_the_compared_fields(name):
    compared = RECORDS[name][3]
    obj = _build(name)
    assert hash(obj) == hash(tuple(getattr(obj, f) for f in compared))
    assert hash(obj) == hash(_build(name))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_reads_exactly_the_compared_fields(name):
    _, _, slots, compared = RECORDS[name]
    obj = _build(name)
    assert obj == _build(name) and not obj != _build(name)
    for field in slots:
        twin = _with(obj, field, object())
        assert (twin == obj) is (field not in compared), field
        assert (twin != obj) is (field in compared), field
    # Equality holds within one class only, even against the fields' tuple.
    fields = tuple(getattr(obj, f) for f in compared)
    assert obj.__eq__(fields) is NotImplemented
    assert obj != fields


def test_caches_stay_out_of_equality():
    s, t = _sierpinski(), _sierpinski()
    assert s.closeds is s.closeds and s.downs is s.downs
    assert s._closeds is not None and t._closeds is None
    assert s == t and hash(s) == hash(t)
    f, g = Family.of(2, [0, 2, 3]), Family.of(2, [0, 2, 3])
    assert 2 in f and f._mask_set is not None and g._mask_set is None
    assert f == g and hash(f) == hash(g)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    obj = _build(name)
    before = repr(obj), tuple(getattr(obj, f) for f in type(obj).__slots__)
    for field in (*type(obj).__slots__, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(obj, field)
    assert (repr(obj), tuple(getattr(obj, f) for f in type(obj).__slots__)) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copy_and_pickle_keep_every_field(name):
    obj = _build(name)
    if name == "TopSpace":
        obj.closeds, obj.downs  # fill the caches: they are copied too
    fields = tuple(getattr(obj, f) for f in type(obj).__slots__)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)
        assert tuple(getattr(twin, f) for f in type(obj).__slots__) == fields


def test_enum_config_checks_cannot_be_bypassed():
    cfg = EnumConfig(5)
    with pytest.raises(AttributeError):
        cfg.n = 6
    with pytest.raises(AttributeError):
        cfg.mode = "bogus"
    assert cfg == EnumConfig(5)
    assert {s.n for s in enumerate_topologies(cfg)} == {5}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_only_the_base_compares_hashes_and_guards_fields(name):
    own = vars(type(_build(name)))
    assert not {"__eq__", "__hash__", "__setattr__", "__delattr__"} & set(own)


@pytest.mark.parametrize("name", FIELD_ONLY)
def test_field_only_records_take_one_value_per_field(name):
    obj = _build(name)
    cls = type(obj)
    assert "__init__" not in vars(cls)
    values = tuple(getattr(obj, f) for f in cls.__slots__)
    assert cls(*values) == obj
    for wrong in (values[:-1], (*values, None)):
        with pytest.raises(TypeError, match=name):
            cls(*wrong)
    with pytest.raises(TypeError):
        cls(**dict(zip(cls.__slots__, values)))
