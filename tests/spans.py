"""Span-tree helpers for tests: find spans by name, compare tree shapes."""


def find(source, name):
    """The spans named ``name``, depth-first: over every tree of a
    tracer, or over the subtree of one span or stitched span."""
    walk = source.spans() if hasattr(source, "spans") else source.walk()
    return [span for span, _ in walk if span.name == name]


def structure(roots):
    """Trees as nested ``(name, children)`` tuples: the shape the
    cross-transport conformance tests compare, without timings, origins
    or attributes."""
    return tuple((root.name, structure(root.children)) for root in roots)
