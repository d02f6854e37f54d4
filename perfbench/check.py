"""Answer checks that share nothing with the run being checked.

:class:`Reference` snapshots the live graph's raw node attributes and
edge list into a graph of its own, so no reachability index, session
cache or label index of the measured program is reused.  Each answer is
then checked two ways:

* equality with ``evaluate_naive`` on that rebuilt graph (memoized per
  query spec and graph state);
* per-tuple properties: the arity equals the number of outputs, every
  output pair joined by a PC edge is a data edge, and every other
  ancestor/descendant output pair is reachable by this module's own BFS.
"""

from __future__ import annotations

from repro import DataGraph, EdgeType, evaluate_naive


class Reference:
    """Reference answers for one state of a graph."""

    def __init__(self, graph: DataGraph):
        self.graph = DataGraph()
        for node in graph.nodes():
            self.graph.add_node(dict(graph.attrs(node)))
        self._succ: list[list[int]] = [[] for _ in graph.nodes()]
        for source, target in graph.edges():
            self.graph.add_edge(source, target)
            self._succ[source].append(target)
        self._answers: dict = {}
        self._below: dict[int, set[int]] = {}

    def answer(self, spec, query) -> set:
        """The naive answer of ``query`` (built from ``spec``)."""
        if spec not in self._answers:
            self._answers[spec] = evaluate_naive(query, self.graph)
        return self._answers[spec]

    def descendants(self, node: int) -> set[int]:
        """Nodes reachable from ``node`` by a nonempty path."""
        found = self._below.get(node)
        if found is None:
            found = set()
            stack = list(self._succ[node])
            while stack:
                current = stack.pop()
                if current not in found:
                    found.add(current)
                    stack.extend(self._succ[current])
            self._below[node] = found
        return found

    def problems(self, spec, query, answer) -> list[str]:
        """Why ``answer`` is wrong for ``query``; empty when it is right."""
        found: list[str] = []
        expected = self.answer(spec, query)
        if answer != expected:
            found.append(
                f"{spec}: {len(answer)} tuples, reference {len(expected)} "
                f"({len(answer - expected)} extra, {len(expected - answer)} missing)"
            )
        outputs = query.outputs
        column = {node_id: k for k, node_id in enumerate(outputs)}
        pairs = []
        for node_id in outputs:
            for ancestor in query.ancestors(node_id):
                if ancestor in column:
                    direct = query.parent[node_id] == ancestor
                    pc = direct and query.edge_type(node_id) is EdgeType.CHILD
                    pairs.append((column[ancestor], column[node_id], pc))
        for row in answer:
            if len(row) != len(outputs):
                found.append(f"{spec}: tuple {row} has arity {len(row)}, expected {len(outputs)}")
                continue
            for top, bottom, pc in pairs:
                source, target = row[top], row[bottom]
                if pc and target not in self._succ[source]:
                    found.append(f"{spec}: PC pair {source}->{target} is not an edge")
                elif not pc and target not in self.descendants(source):
                    found.append(f"{spec}: AD pair {source}->{target} is not reachable")
        return found
