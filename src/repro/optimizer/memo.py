"""The memo: groups of logically equivalent expressions.

The Volcano search engine uses "a top-down, memoizing variant of
dynamic programming" (paper Section 2).  A *group* collects all
logically equivalent multi-expressions (m-exprs); each m-expr is an
operator whose inputs are *groups*, so one m-expr stands for the
combinatorially many trees obtainable by expanding its input groups.
Winner tables memoize the best (set of) physical plans per required
physical property.
"""

from repro.common.errors import OptimizationError


class MExpr:
    """A logical multi-expression: an operator over input groups."""

    GETSET = "getset"
    SELECT = "select"
    JOIN = "join"

    __slots__ = ("kind", "relation_name", "left_key", "right_key", "predicates")

    def __init__(self, kind, relation_name=None, left_key=None, right_key=None,
                 predicates=()):
        self.kind = kind
        self.relation_name = relation_name
        self.left_key = left_key
        self.right_key = right_key
        self.predicates = tuple(predicates)

    @classmethod
    def getset(cls, relation_name):
        """Get-Set of a base relation."""
        return cls(cls.GETSET, relation_name=relation_name)

    @classmethod
    def select(cls, relation_name, input_key):
        """Select over the relation's base group."""
        return cls(cls.SELECT, relation_name=relation_name, left_key=input_key)

    @classmethod
    def join(cls, left_key, right_key, predicates):
        """Join of two groups with the connecting predicates."""
        return cls(
            cls.JOIN, left_key=left_key, right_key=right_key, predicates=predicates
        )

    def identity(self):
        """Hashable identity used to deduplicate m-exprs in a group."""
        if self.kind == self.JOIN:
            return (self.kind, self.left_key, self.right_key)
        return (self.kind, self.relation_name, self.left_key)

    def __repr__(self):
        if self.kind == self.JOIN:
            return "MExpr(join %s x %s)" % (
                sorted(self.left_key[1]),
                sorted(self.right_key[1]),
            )
        return "MExpr(%s %s)" % (self.kind, self.relation_name)


def base_key(relation_name):
    """Memo key of the Get-Set group of a relation."""
    return ("base", relation_name)


def select_key(relation_name):
    """Memo key of the Select group of a relation."""
    return ("select", relation_name)


def join_key(relation_set):
    """Memo key of the join group over a relation set."""
    return ("join", frozenset(relation_set))


class Group:
    """One equivalence class of logical expressions."""

    __slots__ = ("key", "relations", "mexprs", "_identities", "winners")

    def __init__(self, key, relations):
        self.key = key
        self.relations = frozenset(relations)
        self.mexprs = []
        #: identity -> position in ``mexprs``
        self._identities = {}
        #: property key -> PlanEntry (or None when unsatisfiable)
        self.winners = {}

    @property
    def kind(self):
        """One of ``base``, ``select``, ``join``."""
        return self.key[0]

    def add_mexpr(self, mexpr):
        """Add an m-expr unless an identical one is present.

        Returns the m-expr when added, ``None`` when duplicate — the
        memoization that keeps rule application finite.
        """
        identity = mexpr.identity()
        if identity in self._identities:
            return None
        self._identities[identity] = len(self.mexprs)
        self.mexprs.append(mexpr)
        return mexpr

    def position(self, identity):
        """Index in :attr:`mexprs` of the m-expr with ``identity``, or
        ``None`` when the group holds none."""
        return self._identities.get(identity)

    def __repr__(self):
        return "Group(%r, %d mexprs)" % (self.key, len(self.mexprs))


class Memo:
    """All groups of one optimization run."""

    def __init__(self):
        self._groups = {}

    def group(self, key):
        """Fetch an existing group."""
        try:
            return self._groups[key]
        except KeyError:
            raise OptimizationError("no memo group for key %r" % (key,)) from None

    def get_or_create(self, key):
        """Fetch or create the group for a key.

        Returns ``(group, created)`` so callers can seed new groups.
        """
        group = self._groups.get(key)
        if group is not None:
            return group, False
        if key[0] == "join":
            relations = key[1]
        else:
            relations = frozenset((key[1],))
        group = Group(key, relations)
        self._groups[key] = group
        return group, True

    def groups(self):
        """All groups (no ordering guarantees)."""
        return list(self._groups.values())

    def group_count(self):
        """Number of groups created."""
        return len(self._groups)

    def mexpr_count(self):
        """Total m-exprs across all groups."""
        return sum(len(group.mexprs) for group in self._groups.values())

    def logical_tree_count(self, root_key):
        """Number of distinct logical operator trees the memo encodes.

        This is the "number of logical alternative plans considered"
        reported for the paper's five queries: it multiplies out the
        input-group choices of every m-expr below the root group.
        """
        cache = {}

        def count(key):
            cached = cache.get(key)
            if cached is not None:
                return cached
            cache[key] = 0  # guard against cycles (there are none)
            group = self.group(key)
            total = 0
            for mexpr in group.mexprs:
                if mexpr.kind == MExpr.JOIN:
                    total += count(mexpr.left_key) * count(mexpr.right_key)
                elif mexpr.kind == MExpr.SELECT:
                    total += count(mexpr.left_key)
                else:
                    total += 1
            cache[key] = total
            return total

        return count(root_key)

    def __repr__(self):
        return "Memo(%d groups, %d mexprs)" % (
            self.group_count(),
            self.mexpr_count(),
        )
