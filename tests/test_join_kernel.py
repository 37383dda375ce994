"""The nested-loop join kernel against the per-pair loop it replaces.

``EJ`` with an equality between one attribute of each side runs
through :class:`repro.engine.eval_expr.JoinKernel`; every other outer
binding or inner batch takes the per-pair path.  The differential test
runs the same plan twice — kernel on, kernel off — and requires the
same rows in the same order (field order included), the same counters
and the same buffer statistics, over generated data that mixes the
shapes the kernel must decline: None keys, an oid against an equal
int, tuple-valued attributes, methods, oid-valued bindings, the outer
variable on either side of the comparison and both variables on one
side of the join.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine.batch import Batch
from repro.engine.eval_expr import ExpressionEvaluator, JoinKernel
from repro.physical import BufferPool, ObjectStore, PhysicalSchema
from repro.physical.storage import Oid, StoredRecord
from repro.plans.nodes import EJ, IJ, EntityLeaf, Proj, Sel
from repro.querygraph.builder import const, eq, ge, out, path
from repro.querygraph.predicates import TruePredicate
from repro.schema import build_music_catalog

#: Oids 1..6 exist in every generated store (the first records of L),
#: so an oid key may equal an int key of the same value.
NAN = float("nan")
KEYS = st.one_of(
    st.none(),
    st.integers(1, 6),
    st.integers(1, 6).map(Oid),
    st.sampled_from(["a", "b", 1.0, True, NAN]),
)
#: Tuple-valued attributes live apart (``t``), so that most generated
#: ``k``/``j`` columns stay scalar and the kernel gets to run.
TUPLES = st.tuples(st.integers(1, 4), st.integers(1, 4).map(Oid))

RECORD = st.fixed_dictionaries(
    {
        "k": KEYS,
        "j": KEYS,
        "t": st.one_of(TUPLES, KEYS),
        "birthyear": st.integers(1600, 1610),
    }
)


def _shapes():
    lk, lj, rk = path("l", "k"), path("l", "j"), path("r", "k")
    return {
        "outer-left": EJ(EntityLeaf("L", "l"), EntityLeaf("R", "r"), eq(lk, rk)),
        "outer-right": EJ(EntityLeaf("L", "l"), EntityLeaf("R", "r"), eq(rk, lj)),
        "inner-selected": EJ(
            EntityLeaf("L", "l"),
            Sel(EntityLeaf("R", "r"), ge(path("r", "birthyear"), const(1603))),
            eq(lk, rk),
        ),
        "outer-oid-binding": EJ(
            Proj(EntityLeaf("L", "l"), out(v=path("l", "ref"))),
            EntityLeaf("R", "r"),
            eq(path("v", "k"), rk),
        ),
        "inner-oid-binding": EJ(
            EntityLeaf("L", "l"),
            Proj(EntityLeaf("R", "r"), out(w=path("r", "ref"))),
            eq(lk, path("w", "k")),
        ),
        "outer-tuple": EJ(
            EntityLeaf("L", "l"), EntityLeaf("R", "r"), eq(path("l", "t"), rk)
        ),
        "inner-tuple": EJ(
            EntityLeaf("L", "l"), EntityLeaf("R", "r"), eq(lk, path("r", "t"))
        ),
        "outer-method": EJ(
            EntityLeaf("L", "l"), EntityLeaf("R", "r"), eq(path("l", "age"), rk)
        ),
        "inner-method": EJ(
            EntityLeaf("L", "l"), EntityLeaf("R", "r"), eq(lk, path("r", "age"))
        ),
        "both-vars-outer": EJ(
            EJ(EntityLeaf("L", "l"), EntityLeaf("R", "r"), TruePredicate()),
            EntityLeaf("R", "s"),
            eq(lk, rk),
        ),
        "both-vars-inner": EJ(
            EntityLeaf("R", "s"),
            EJ(EntityLeaf("L", "l"), EntityLeaf("R", "r"), TruePredicate()),
            eq(rk, lk),
        ),
        "inner-rebinds-outer": EJ(
            EntityLeaf("R", "r"),
            IJ(EntityLeaf("L", "l"), EntityLeaf("R", "r"), path("l", "ref"), "r"),
            eq(lk, rk),
        ),
        "inner-shadows-outer": EJ(
            EJ(EntityLeaf("L", "l"), EntityLeaf("R", "r"), TruePredicate()),
            EntityLeaf("L", "l"),
            eq(lk, rk),
        ),
    }


SHAPES = _shapes()


def build_physical(left_rows, right_rows):
    """L and R extents (two records a page, a three-page buffer, so
    rescans evict) implementing Composer, whose ``age`` method the
    method shapes call.  Every record's ``ref`` points at an R record
    (or at L's first record when R is empty)."""
    store = ObjectStore(BufferPool(capacity=3), records_per_page=2)
    physical = PhysicalSchema(store, catalog=build_music_catalog())
    physical.register_extent("L", "Composer")
    physical.register_extent("R", "Composer")
    # Six fixed L records first, so oids 1..6 always exist.
    left = [{"k": i, "j": None, "t": i, "birthyear": 1600} for i in range(6)]
    left_oids = [store.insert("L", dict(v)) for v in left + list(left_rows)]
    right_oids = [store.insert("R", dict(v)) for v in right_rows]
    targets = right_oids or left_oids[:1]
    for index, oid in enumerate(left_oids + right_oids):
        store.peek(oid).values["ref"] = targets[index % len(targets)]
    return physical


def _comparable(value):
    if isinstance(value, StoredRecord):
        return ("record", int(value.oid))
    if isinstance(value, float) and math.isnan(value):
        return ("nan",)
    return (type(value).__name__, value)


def run(physical, plan, layout, batch_size, kernel, monkeypatch):
    """Rows (in order, with field order), every counter and the buffer
    statistics of one execution, or the raised error."""
    with monkeypatch.context() as patch:
        if not kernel:
            patch.setattr(
                ExpressionEvaluator, "compile_join_kernel", lambda self, p: None
            )
        physical.store.buffer.clear()
        engine = Engine(physical, batch_size=batch_size, batch_layout=layout)
        try:
            result = engine.execute(plan, validate=False)
        except Exception as error:  # the per-pair path's error must match
            return ("error", type(error).__name__, str(error))
    metrics = result.metrics
    rows = [
        [(name, _comparable(value)) for name, value in row.items()]
        for row in result.rows
    ]
    counters = metrics.to_dict()
    counters["tuples_by_operator"] = dict(metrics.tuples_by_operator)
    counters["buffer"] = (
        metrics.buffer.logical_reads,
        metrics.buffer.physical_reads,
        metrics.buffer.evictions,
    )
    return rows, counters


@pytest.mark.parametrize("layout", ["row", "columnar"])
@pytest.mark.parametrize("batch_size", [1, 7, 256])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@example(  # NaN never equals itself, even as one shared object
    left_rows=[{"k": NAN, "j": NAN, "t": NAN, "birthyear": 1600}],
    right_rows=[{"k": NAN, "j": NAN, "t": NAN, "birthyear": 1605}],
    shape="outer-left",
)
@example(  # an oid key equals the int of the same value
    left_rows=[{"k": Oid(2), "j": 2, "t": (Oid(2),), "birthyear": 1600}],
    right_rows=[{"k": 2, "j": Oid(2), "t": None, "birthyear": 1605}],
    shape="outer-tuple",
)
@given(
    left_rows=st.lists(RECORD, max_size=6),
    right_rows=st.lists(RECORD, max_size=9),
    shape=st.sampled_from(sorted(SHAPES)),
)
def test_kernel_matches_per_pair_path(
    monkeypatch, layout, batch_size, left_rows, right_rows, shape
):
    physical = build_physical(left_rows, right_rows)
    plan = SHAPES[shape]
    with_kernel = run(physical, plan, layout, batch_size, True, monkeypatch)
    per_pair = run(physical, plan, layout, batch_size, False, monkeypatch)
    assert with_kernel == per_pair


class TestKernelFires:
    """The differential test would pass with a kernel that never runs;
    these pin down that it does, on the shapes it is for."""

    @pytest.fixture()
    def physical(self):
        right = [
            {"k": k, "j": None, "t": (k,), "birthyear": 1605} for k in (1, None, 3)
        ]
        return build_physical([], right)

    def count_matches(self, physical, plan, monkeypatch, layout="columnar"):
        calls = {"kernel": 0, "declined": 0}
        original = JoinKernel.matches

        def counting(key, batch):
            selected = original(key, batch)
            calls["kernel" if selected is not None else "declined"] += 1
            return selected

        monkeypatch.setattr(JoinKernel, "matches", staticmethod(counting))
        Engine(physical, batch_layout=layout).execute(plan, validate=False)
        return calls

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    @pytest.mark.parametrize(
        "shape", ["outer-left", "outer-right", "inner-selected", "outer-tuple"]
    )
    def test_kernel_runs_with_none_keys(self, physical, monkeypatch, layout, shape):
        calls = self.count_matches(physical, SHAPES[shape], monkeypatch, layout)
        assert calls["kernel"] > 0
        assert calls["declined"] == 0

    @pytest.mark.parametrize(
        "shape",
        ["inner-oid-binding", "inner-method", "inner-tuple", "inner-rebinds-outer"],
    )
    def test_kernel_declines_charged_inner_keys(self, physical, monkeypatch, shape):
        calls = self.count_matches(physical, SHAPES[shape], monkeypatch)
        assert calls["kernel"] == 0
        assert calls["declined"] > 0

    def test_oid_equals_int(self):
        store = ObjectStore()
        store.create_extent("E")
        record = store.peek(store.insert("E", {"k": 2}))
        kernel = JoinKernel(path("l", "k"), path("r", "k"))
        key = ("l", "r", "k", (Oid(2),))
        batch = Batch.from_columns({"r": [record]})
        assert kernel.matches(key, batch) == [0]

    def test_declines_dict_and_missing_variable(self):
        store = ObjectStore()
        store.create_extent("E")
        record = store.peek(store.insert("E", {"k": 1}))
        kernel = JoinKernel(path("l", "k"), path("r", "k"))
        assert kernel.outer_key({"l": {"k": 1}}) is None
        assert kernel.outer_key({"l": record, "r": record}) is None
        key = kernel.outer_key({"l": record})
        assert key == ("l", "r", "k", (1,))
        assert kernel.matches(key, Batch.from_columns({"r": [{"k": 1}]})) is None
        assert kernel.matches(key, Batch.from_columns({"x": [record]})) is None
        assert kernel.matches(key, Batch([{"r": record, "l": record}])) is None

    def test_compiled_once_per_predicate(self):
        evaluator = ExpressionEvaluator(ObjectStore(), None)
        predicate = eq(path("l", "k"), path("r", "k"))
        assert evaluator.compile_join_kernel(predicate) is evaluator.compile_join_kernel(
            predicate
        )
        assert evaluator.compile_join_kernel(eq(path("l", "k"), const(1))) is None
        assert evaluator.compile_join_kernel(eq(path("l", "k"), path("l", "j"))) is None
