"""Working with labeled graphs and exact (q,t) coefficients.

Run: python3 demos/01_graphs_and_polynomials.py
Output is deterministic; every printed claim is asserted.
"""

from grhopf import Graph, Q, T, QTPolynomial, chromatic_polynomial

# a labeled graph is a sorted vertex tuple plus an undirected edge set
g = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")])
print("graph:")
print(g.to_text())

# induced subgraphs keep exactly the edges inside the chosen set
sub = g.induced({"a", "b", "c"})
print("edges induced on {a,b,c}:", sorted(sub.edges))
assert len(sub.edges) == 3

# the complement swaps edges and non-edges
comp = g.complement()
print("complement edges:", sorted(comp.edges))
assert len(comp.edges) == 6 - 4
assert comp.complement() == g

# crossing edges across a vertex split drive every braiding coefficient
cross = g.crossing_edges({"a", "b"}, {"c", "d"})
print("edges crossing ab|cd:", cross)
assert cross == 2

# quotient by a partition's blocks merges each block into its smallest label;
# parallel edges collapse
merged = g.quotient([("a", "c"), ("b",), ("d",)])
print("quotient by a,c/b/d:", merged.vertices, sorted(merged.edges))
assert merged.vertices == ("a", "b", "d")
assert merged.edges == frozenset([("a", "b"), ("a", "d")])

# coefficients are exact integer polynomials in q and t
p = (Q + T) * (Q - T) + QTPolynomial.const(1)
print("(q+t)(q-t)+1 =", p)
assert p == Q * Q - T * T + QTPolynomial.const(1)
assert p.evaluate(2, 3) == 4 - 9 + 1
assert p.swap_qt() == T * T - Q * Q + QTPolynomial.const(1)

# chromatic polynomial comes out as an exact coefficient tuple
coeffs = chromatic_polynomial(g)
print("chromatic coefficients (low to high):", coeffs)
values = [sum(c * k**i for i, c in enumerate(coeffs)) for k in range(4)]
print("proper-coloring counts at k=0..3:", values)
# triangle abc admits 3! colorings, then d avoids the color at c
assert values == [0, 0, 0, 12]

print("ok")
