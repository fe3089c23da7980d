"""The one union-find of the package: ggraph's tree check and compress,
retract's filtration check and stallings' fold.  It has a module of its own
so that the fold loads no G-graph code."""


class UnionFind:
    """Disjoint sets over 0..n-1; `union` keeps the smaller root."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True
