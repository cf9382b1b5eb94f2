"""Shared test helper: an engine-independent reference evaluator.

Filters every relation by its selection, then folds the joins one
relation at a time — semantically the textbook definition (select +
cartesian product + join predicates) but polynomial instead of
exponential, so it also serves the 4-way-join integration tests.
"""


def reference_rows(workload, database, bindings):
    """Reference evaluation independent of the execution engine.

    Filters every relation by its selection, then folds the joins one
    relation at a time with naive dictionary lookups — semantically the
    textbook definition (select + cartesian product + join predicates)
    but polynomial instead of exponential.
    """
    query = workload.query
    filtered = {}
    for relation in query.relations:
        predicate = query.selection_for(relation)
        records = database.heap(relation).all_records()
        if predicate is not None:
            records = [
                record
                for record in records
                if predicate.evaluate(record, bindings)
            ]
        filtered[relation] = records

    remaining = list(query.relations)
    placed = {remaining.pop(0)}
    current = filtered[query.relations[0]]
    applied = set()
    while remaining:
        # Pick the next relation connected to what we've already joined.
        for index, candidate in enumerate(remaining):
            predicates = query.cross_predicates(placed, {candidate})
            if predicates:
                remaining.pop(index)
                break
        else:
            raise AssertionError("disconnected join graph in reference")
        # (joined-side attribute, candidate attribute) per predicate.
        pairs = [
            (p.right_attribute, p.left_attribute)
            if p.left_attribute.split(".", 1)[0] == candidate
            else (p.left_attribute, p.right_attribute)
            for p in predicates
        ]
        matches = {}
        for right_record in filtered[candidate]:
            key = tuple(right_record[mine] for _, mine in pairs)
            matches.setdefault(key, []).append(right_record)
        joined = [
            left_record.merged_with(right_record)
            for left_record in current
            for right_record in matches.get(
                tuple(left_record[theirs] for theirs, _ in pairs), ()
            )
        ]
        placed.add(candidate)
        applied.update(
            (p.left_attribute, p.right_attribute) for p in predicates
        )
        current = joined
    # Any predicates not yet applied (cycles) filter the final set.
    for predicate in query.join_predicates:
        key = (predicate.left_attribute, predicate.right_attribute)
        rkey = (predicate.right_attribute, predicate.left_attribute)
        if key not in applied and rkey not in applied:
            current = [
                record
                for record in current
                if record[predicate.left_attribute]
                == record[predicate.right_attribute]
            ]
    return current


def row_multiset(records, keys):
    return sorted(tuple(record[key] for key in keys) for record in records)
