"""Short failure messages for comparing large generated documents."""


def first_difference(a: str, b: str):
    """(line number, line of a, line of b) of the first line where two
    texts differ, or None when they are equal.  pytest's own diff of two
    megabyte strings takes minutes; this keeps a failure readable."""
    la, lb = a.splitlines(keepends=True), b.splitlines(keepends=True)
    for n, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return n, x, y
    if len(la) != len(lb):
        n = min(len(la), len(lb))
        return n, "".join(la[n:n + 1]), "".join(lb[n:n + 1])
    return None
