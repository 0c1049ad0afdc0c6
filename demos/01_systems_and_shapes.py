#!/usr/bin/env python3
"""Tour of the basic objects: non-crossing matchings, meandric systems,
loops, and shapes.

A meandric system of size n is a pair of non-crossing perfect matchings
of {1, ..., 2n}: one drawn above the horizontal axis, one below.  The
arcs close up into disjoint loops; each loop's translation-normalized
type is its shape.
"""

from meandric import (
    InvalidMatchingError,
    MeandricSystem,
    NonCrossingMatching,
    catalan,
    component_shape,
    components,
    count_shape,
    enumerate_matchings,
    enumerate_shapes,
    format_shape,
    parse_shape,
    simple_loop,
)

print("=== Non-crossing matchings ===")
matching = NonCrossingMatching.from_text("1-6,2-3,4-5")
print(f"{matching.to_text()}: {matching.size} arcs; vertex 2 pairs with {matching.partner[2]}")
try:
    NonCrossingMatching.from_text("1-3,2-4")
except InvalidMatchingError as exc:
    print("1-3,2-4 is refused:", exc)
print(f"catalan(4) = {catalan(4)}; enumeration yields", sum(1 for _ in enumerate_matchings(4)))

print()
print("=== A connected system of size 2 ===")
system = MeandricSystem(
    NonCrossingMatching.from_text("1-2,3-4"),
    NonCrossingMatching.from_text("1-4,2-3"),
)
loop = components(system)[0]  # loops are listed by leftmost vertex
print("upper 1-2,3-4 over lower 1-4,2-3 gives one loop with support", loop.support)
print("its shape:", format_shape(component_shape(loop, system)))

print()
print("=== Components and shape counts ===")
upper = NonCrossingMatching.from_text("1-4,2-3,5-6,7-12,8-9,10-11")
lower = NonCrossingMatching.from_text("1-12,2-3,4-7,5-6,8-9,10-11")
system = MeandricSystem(upper, lower)
for comp in components(system):
    print(f"  support {comp.support}  half-length {comp.half_length}")
print("simple loops in this system:", count_shape(system, simple_loop()))

big = parse_shape("supp=1,4,7,12;up=1-4,7-12;lo=1-12,4-7")
print("copies of the half-length-6 shape:", count_shape(system, big))

print()
print("=== Shape enumeration ===")
for ell in (1, 2, 3):
    shapes = enumerate_shapes(ell)
    print(f"half-length {ell}: {len(shapes)} shapes")
    if ell <= 2:
        for shape in shapes:
            print("   ", format_shape(shape))
