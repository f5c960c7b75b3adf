"""Both regular n-gons realizing a given list of point-to-vertex distances.

The package solves the inverse distance problem for regular polygons:
from the n distances between a point and the vertices of a regular n-gon
it recovers both non-congruent polygons carrying those distances,
reconstructs explicit coordinates, specializes to closed forms for
equilateral triangles, finds the two equal-multiset points of a
shared-vertex polygon pair, and cross-checks everything against a
closed-form-free numerical search.

Import each name from the module that defines it.  The package needs
only the standard library.
"""
