"""The names perfbench/ reads from l1cert stay in place.

The benchmark's traced run wraps every function of harness.TARGETS and
every suite of harness.MAPPINGS; a name it cannot find is reported, not
raised, so a rename would go unseen there. The adapters that keep its
older reads working keep their contracts: `point_set` returns a fresh
copy with nothing cached, `.graph` is the graph itself and `.addresses`
its vertices.
"""

from pathlib import Path

import pytest

# The selftest workload imports the suites from its second op on.
from l1cert import pointset, selftest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_found(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness
    import spans

    matrix = vars(pointset.RecursiveCycleGraph)["distance_matrix"]
    suites = dict(selftest.SUITES)
    tracer = spans.Tracer()
    try:
        tracer.install(harness.TARGETS, harness.MAPPINGS)
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert vars(pointset.RecursiveCycleGraph)["distance_matrix"] is matrix
    assert selftest.SUITES == suites


@pytest.mark.parametrize("flip", [False, True])
def test_adapters_keep_their_contracts(flip):
    graph = pointset.build_graph(pointset.GraphParams(2, 3), flip_bottom=flip)
    graph.distance_matrix
    fresh = pointset.point_set(graph)
    assert fresh is not graph
    assert fresh.params == graph.params and fresh.flip_bottom == graph.flip_bottom
    assert "_bitplanes" not in fresh.__dict__ and "distance_matrix" not in fresh.__dict__
    assert graph.graph is graph
    assert graph.addresses == graph.vertices
    assert pointset.PointSet is pointset.RecursiveCycleGraph
