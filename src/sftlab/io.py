"""JSON serialization of models, count data, profiles and series.

All rationals travel as "numerator/denominator" strings (plain integers
accepted, booleans refused) so files round-trip exactly.  Every file
carries a versioned ``schema`` field.  Loaders read each field through one
typed reader, ``_field`` (``_value`` for a list item), which names the
field's kind where it is read: int, str, bool, list, dict, Fraction (read
by ``decode_rational``) or object (unchecked, for callers that check the
shape themselves).  An optional field may be absent or null, and then
reads as its default.  Any malformed input raises ValidationError with a
field path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .cylhom import ChainComplexData, CountEntry, Insertion, Orbit, OrbitSet
from .errors import ValidationError, under_path
from .gw import CorrelatorTable, TargetModel
from .hierarchy import bad_covers

MODEL_SCHEMA = "sftlab-model/1"
COUNTS_SCHEMA = "sftlab-counts/1"
PROFILES_SCHEMA = "sftlab-profiles/1"
TABLE_SCHEMA = "sftlab-table/1"
LEDGER_SCHEMA = "sftlab-ledger/1"


def encode_rational(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def decode_rational(x, path="value") -> Fraction:
    if type(x) not in (str, int):  # bool is an int subclass and is refused too
        raise ValidationError(
            f"rationals must be strings or integers, got {type(x).__name__}", path)
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {x!r}: {exc}", path) from None


REQUIRED = object()
_KIND_NAMES = {int: "an integer", str: "a string", bool: "a boolean",
               list: "a JSON list", dict: "a JSON object"}


def _value(value, path, kind, minimum=None):
    """value as a JSON value of ``kind`` (a rational for Fraction, anything
    for object; an int at least ``minimum`` if given), else a
    ValidationError at path."""
    if kind is Fraction:
        return decode_rational(value, path)
    if kind is not object and type(value) is not kind:  # so a bool is no int
        raise ValidationError(f"expected {_KIND_NAMES[kind]}, got {value!r}", path)
    if minimum is not None and value < minimum:
        raise ValidationError(f"must be at least {minimum}, got {value}", path)
    return value


def _field(obj, key, path, kind, default=REQUIRED, minimum=None):
    """obj[key] read by ``_value``; required unless a default is given,
    which an absent or null field reads as."""
    _value(obj, path, dict)
    if obj.get(key) is None and default is not REQUIRED:
        return default
    if key not in obj:
        raise ValidationError(f"missing field {key!r}", f"{path}.{key}")
    return _value(obj[key], f"{path}.{key}", kind, minimum)


def _objects(obj, key, path, default=REQUIRED):
    """(item path, item) of the JSON list obj[key], each item an object."""
    for k, item in enumerate(_field(obj, key, path, list, default)):
        ipath = f"{path}.{key}[{k}]"
        yield ipath, _value(item, ipath, dict)


def _correlator_key(model: TargetModel, item, path):
    """The key of a primaries or table-values item: [class, level] pairs."""
    pairs = []
    for i, ins in enumerate(_field(item, "insertions", path, list)):
        ipath = f"{path}.insertions[{i}]"
        if not isinstance(ins, list) or len(ins) != 2:
            raise ValidationError(f"expected [class, level], got {ins!r}", ipath)
        cid = _value(ins[0], f"{ipath}[0]", str)
        with under_path(ipath, item=True):
            model.class_index(cid)
        pairs.append((cid, _value(ins[1], f"{ipath}[1]", int)))
    degree = [_value(x, f"{path}.degree[{i}]", int)
              for i, x in enumerate(_field(item, "degree", path, list, []))]
    with under_path(path):
        return model.key(pairs, degree)


def _check_schema(obj, expected, path):
    schema = _field(obj, "schema", path, object)
    if schema != expected:
        raise ValidationError(f"schema {schema!r}, expected {expected!r}",
                              f"{path}.schema")


def load_json(path):
    p = Path(path)
    if not p.exists():
        raise ValidationError("file does not exist", str(path))
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}", str(path)) from None


def fixture_path(name: str) -> Path:
    from importlib import resources
    return Path(str(resources.files("sftlab") / "fixtures" / name))


# -- models ------------------------------------------------------------------------


def model_to_dict(model: TargetModel) -> dict:
    return {
        "schema": MODEL_SCHEMA,
        "name": model.name,
        "classes": [{"id": c.id, "degree": c.degree} for c in model.classes],
        "unit": model.unit,
        "eta": [[encode_rational(x) for x in row] for row in model.eta],
        "h2_rank": model.h2_rank,
        "chern": list(model.chern),
        "divisor": model.divisor,
        "divisor_cup": ({cid: {b: encode_rational(v) for b, v in row.items()}
                         for cid, row in model.divisor_cup.items()}
                        if model.divisor_cup else None),
        "divisor_pairing": (list(model.divisor_pairing)
                            if model.divisor_pairing else None),
        "primaries": [
            {"insertions": [[c, a] for c, a in key.insertions],
             "degree": list(key.degree),
             "value": encode_rational(v)}
            for key, v in sorted(model.primaries.items(),
                                 key=lambda kv: (kv[0].insertions, kv[0].degree))],
    }


def model_from_dict(obj: dict, path="model") -> TargetModel:
    _check_schema(obj, MODEL_SCHEMA, path)
    classes = [(_field(c, "id", cpath, str), _field(c, "degree", cpath, int))
               for cpath, c in _objects(obj, "classes", path)]
    eta = [[_value(x, f"{path}.eta[{i}][{j}]", Fraction)
            for j, x in enumerate(_value(row, f"{path}.eta[{i}]", list))]
           for i, row in enumerate(_field(obj, "eta", path, list))]
    cup = _field(obj, "divisor_cup", path, dict, None)
    if cup is not None:
        cup = {cid: {b: _value(v, f"{path}.divisor_cup.{cid}.{b}", Fraction)
                     for b, v in _field(cup, cid, f"{path}.divisor_cup", dict).items()}
               for cid in cup}
    pairing = _field(obj, "divisor_pairing", path, list, None)
    if pairing is not None:
        pairing = [_value(x, f"{path}.divisor_pairing[{i}]", int)
                   for i, x in enumerate(pairing)]
    name = _field(obj, "name", path, str, "model")
    unit = _field(obj, "unit", path, str)
    divisor = _field(obj, "divisor", path, str, None)
    h2_rank = _field(obj, "h2_rank", path, int, 0, minimum=0)
    chern = [_value(c, f"{path}.chern[{i}]", int)
             for i, c in enumerate(_field(obj, "chern", path, list, []))]
    with under_path(path):
        model = TargetModel(
            name, classes, unit, eta, h2_rank=h2_rank, chern=chern, divisor=divisor,
            divisor_cup=cup, divisor_pairing=pairing)
    for ppath, p in _objects(obj, "primaries", path, []):
        key = _correlator_key(model, p, ppath)
        value = _field(p, "value", ppath, Fraction)
        with under_path(ppath, item=True):
            model.add_primary(key, value)
    return model


def load_model(path) -> TargetModel:
    return model_from_dict(load_json(path), str(path))


def save_model(model: TargetModel, path):
    Path(path).write_text(dumps_canonical(model_to_dict(model)))


# -- correlator tables ----------------------------------------------------------------


def table_to_dict(table: CorrelatorTable) -> dict:
    return {
        "schema": TABLE_SCHEMA,
        "model": table.model.name,
        "values": [
            {"insertions": [[c, a] for c, a in key.insertions],
             "degree": list(key.degree), "value": encode_rational(v)}
            for key, v in table.items_sorted()],
    }


def table_from_dict(obj, model: TargetModel, path="table") -> CorrelatorTable:
    """Correlator values over ``model``; the file's ``model`` name is ignored."""
    _check_schema(obj, TABLE_SCHEMA, path)
    table = CorrelatorTable(model)
    for ipath, item in _objects(obj, "values", path, []):
        key = _correlator_key(model, item, ipath)
        value = _field(item, "value", ipath, Fraction)
        with under_path(ipath, item=True):
            table.set(key, value)
    return table


def load_table(path, model: TargetModel) -> CorrelatorTable:
    return table_from_dict(load_json(path), model, str(path))


def save_table(table: CorrelatorTable, path):
    Path(path).write_text(dumps_canonical(table_to_dict(table)))


# -- count data --------------------------------------------------------------------


def counts_to_dict(data: ChainComplexData) -> dict:
    out = {
        "schema": COUNTS_SCHEMA,
        "name": data.name,
        "equivariant": data.orbits.equivariant,
        "section_choice": data.section_choice,
        "level_bound": data.level_bound,
        "t_order": data.t_order,
        "contact": data.contact,
        "orbits": [{"id": o.id, "degree": o.degree, "good": o.good}
                   for o in data.orbits.orbits],
        "model": model_to_dict(data.model),
        "table": table_to_dict(data.table),
        "entries": [
            {"src": list(e.src), "dst": list(e.dst),
             "insertions": [[i.class_id, i.level, i.constrained]
                            for i in e.insertions],
             "degree": list(e.degree), "value": encode_rational(e.value)}
            for e in data.entries],
    }
    if data.fiber_model is not None:
        out["fiber_model"] = model_to_dict(data.fiber_model)
        out["fiber_table"] = table_to_dict(data.fiber_table)
    return out


def _generator_key(entry, end, path):
    """entry[end] as an (orbit id, flavor) generator key."""
    value = _field(entry, end, path, list)
    if len(value) != 2 or not all(isinstance(x, str) for x in value):
        raise ValidationError(f"expected [orbit, flavor], got {value!r}",
                              f"{path}.{end}")
    return tuple(value)


def counts_from_dict(obj, path="counts") -> ChainComplexData:
    """Chain data from a counts file.  Legacy orbit ``multiplicity`` and
    top-level ``wedge_map`` fields are ignored.  A constrained insertion
    needs a hat/check generator set (non-equivariant mode)."""
    _check_schema(obj, COUNTS_SCHEMA, path)
    orbits = [Orbit(_field(o, "id", opath, str), _field(o, "degree", opath, int),
                    _field(o, "good", opath, bool, True))
              for opath, o in _objects(obj, "orbits", path)]
    equivariant = _field(obj, "equivariant", path, bool)
    model = model_from_dict(_field(obj, "model", path, dict), f"{path}.model")
    table = table_from_dict(_field(obj, "table", path, dict), model, f"{path}.table")
    entries = []
    for epath, e in _objects(obj, "entries", path, []):
        insertions = []
        for i, ins in enumerate(_field(e, "insertions", epath, list, [])):
            ipath = f"{epath}.insertions[{i}]"
            if not isinstance(ins, list) or len(ins) != 3:
                raise ValidationError(f"expected [class, level, constrained], got {ins!r}",
                                      ipath)
            insertions.append(Insertion(_value(ins[0], f"{ipath}[0]", str),
                                        _value(ins[1], f"{ipath}[1]", int),
                                        _value(ins[2], f"{ipath}[2]", bool)))
        if equivariant and any(i.constrained for i in insertions):
            raise ValidationError("constrained insertion in equivariant mode",
                                  f"{epath}.insertions")
        entries.append(CountEntry(
            _generator_key(e, "src", epath), _generator_key(e, "dst", epath),
            tuple(insertions),
            tuple(_value(x, f"{epath}.degree[{i}]", int)
                  for i, x in enumerate(_field(e, "degree", epath, list, []))),
            _field(e, "value", epath, Fraction)))
    fiber_model = _field(obj, "fiber_model", path, dict, None)
    fiber_table = None
    if fiber_model is not None:
        fiber_model = model_from_dict(fiber_model, f"{path}.fiber_model")
        fiber_table = table_from_dict(_field(obj, "fiber_table", path, dict),
                                      fiber_model, f"{path}.fiber_table")
    section_choice = _field(obj, "section_choice", path, str, "generic")
    level_bound = _field(obj, "level_bound", path, int, 2, minimum=0)
    t_order = _field(obj, "t_order", path, int, 2, minimum=0)
    contact = _field(obj, "contact", path, bool, False)
    name = _field(obj, "name", path, str, "counts")
    with under_path(path):
        return ChainComplexData(
            OrbitSet(orbits, equivariant), entries, model, table, section_choice,
            level_bound, t_order, contact, fiber_model, fiber_table, name=name)


def load_counts(path) -> ChainComplexData:
    return counts_from_dict(load_json(path), str(path))


def save_counts(data: ChainComplexData, path):
    Path(path).write_text(dumps_canonical(counts_to_dict(data)))


# -- grading / sign profiles -----------------------------------------------------------


def profiles_from_dict(obj, path="profiles") -> dict:
    _check_schema(obj, PROFILES_SCHEMA, path)
    half_dim = _field(obj, "half_dim", path, int)
    q_degrees = _field(obj, "q_degrees", path, dict, None)
    if q_degrees is None and half_dim % 2 == 0:
        raise ValidationError(
            f"a circle profile (no q_degrees) needs an odd half_dim: {half_dim} "
            f"makes every q_n and p_n odd", f"{path}.half_dim")
    if q_degrees is not None:
        given, q_degrees = q_degrees, {}
        for k, v in given.items():
            try:
                cover = int(k)
            except ValueError:
                raise ValidationError(f"cover {k!r} is not an integer",
                                      f"{path}.q_degrees.{k}") from None
            q_degrees[cover] = _value(v, f"{path}.q_degrees.{k}", int)
        least = {}  # deg q_n mod 2 depends only on n mod 2
        for n in sorted(q_degrees):
            m = least.setdefault(n % 2, n)
            if (q_degrees[n] - q_degrees[m]) % 2:
                raise ValidationError(
                    f"deg q_{n} = {q_degrees[n]} and deg q_{m} = {q_degrees[m]} "
                    f"differ in parity, but the parity of deg q_n depends only "
                    f"on n mod 2", f"{path}.q_degrees.{n}")
    signs = _field(obj, "signs", path, dict, {})
    explicit = {}
    for i, item in enumerate(_field(signs, "explicit", f"{path}.signs", list, [])):
        epath = f"{path}.signs.explicit[{i}]"
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], list)):
            raise ValidationError(f"expected [[covers], sign], got {item!r}", epath)
        tup, eps = item
        eps = _value(eps, f"{epath}[1]", int)
        if eps not in (-1, 0, 1):
            raise ValidationError(f"sign {eps} for {tup} not in -1..1", epath)
        explicit[tuple(_value(n, f"{epath}[0][{j}]", int)
                       for j, n in enumerate(tup))] = eps
    if explicit and q_degrees is None:
        raise ValidationError("a circle profile (no q_degrees) takes every sign "
                              "+1; explicit signs need q_degrees",
                              f"{path}.signs.explicit")
    declared = _field(signs, "bad_covers", f"{path}.signs", list, None)
    if declared is not None:  # legacy field: must be the derived set
        declared = {_value(b, f"{path}.signs.bad_covers[{i}]", int)
                    for i, b in enumerate(declared)}
        if declared != bad_covers(q_degrees):
            raise ValidationError(
                f"declared {sorted(declared)}, but the degrees make "
                f"{sorted(bad_covers(q_degrees))} bad (the even covers whose q "
                f"has the other parity than q_1)", f"{path}.signs.bad_covers")
    return {
        "name": _field(obj, "name", path, str, "profiles"),
        "half_dim": half_dim,
        "cover_bound": _field(obj, "cover_bound", path, int, 3, minimum=1),
        "q_degrees": q_degrees,
        "explicit": explicit,
    }


def load_profiles(path) -> dict:
    return profiles_from_dict(load_json(path), str(path))


# -- perturbation ledgers ---------------------------------------------------------------


def _marked_pair(value, path):
    """Two distinct marked points of the five-point moduli space, as a list."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"expected two marked points, got {value!r}", path)
    pair = [_value(x, f"{path}[{i}]", int, minimum=1) for i, x in enumerate(value)]
    if pair[0] == pair[1] or max(pair) > 5:
        raise ValidationError(f"expected two distinct points of 1..5, got {pair}",
                              path)
    return pair


def _labelled_rationals(obj, key, path, label=str):
    """obj[key] as a list of [label, rational] items, each label of kind
    ``label``."""
    out = []
    for i, item in enumerate(_field(obj, key, path, list)):
        ipath = f"{path}.{key}[{i}]"
        if not isinstance(item, list) or len(item) != 2:
            raise ValidationError(f"expected [label, rational], got {item!r}", ipath)
        out.append([_value(item[0], f"{ipath}[0]", label),
                    _value(item[1], f"{ipath}[1]", Fraction)])
    return out


def ledger_from_dict(obj, path="ledger") -> dict:
    """The ``divisors.ledger_check`` / ``restriction_check`` input, validated:
    point pairs as int lists, weights as Fractions and labels as strings."""
    _check_schema(obj, LEDGER_SCHEMA, path)
    selfs = []
    for ipath, item in _objects(obj, "self_intersections", path):
        at = _labelled_rationals(item, "at", ipath, object)
        for j, pt in enumerate(at):
            pt[0] = _marked_pair(pt[0], f"{ipath}.at[{j}][0]")
        selfs.append({
            "divisor": _marked_pair(_field(item, "divisor", ipath, object),
                                    f"{ipath}.divisor"),
            "weight": _field(item, "weight", ipath, Fraction),
            "at": at})
    if not selfs:  # the suite's fault check flips the first entry
        raise ValidationError("needs at least one entry",
                              f"{path}.self_intersections")
    cross = [{"a": _marked_pair(_field(item, "a", ipath, object), f"{ipath}.a"),
              "a_weight": _field(item, "a_weight", ipath, Fraction),
              "b": _marked_pair(_field(item, "b", ipath, object), f"{ipath}.b"),
              "at": _labelled_rationals(item, "at", ipath)}
             for ipath, item in _objects(obj, "cross_intersections", path)]
    restrictions = {}
    table = _field(obj, "restrictions", path, dict)
    for label in table:
        rpath = f"{path}.restrictions.{label}"
        parts = label.split(",")
        if not all(x.isdigit() for x in parts):
            raise ValidationError(f"label {label!r} is not 'j,k'", rpath)
        _marked_pair([int(x) for x in parts], rpath)
        restrictions[label] = [
            {"at": _marked_pair(_field(pt, "at", ipath, object), f"{ipath}.at"),
             "contributions": _labelled_rationals(pt, "contributions", ipath)}
            for ipath, pt in _objects(table, label, f"{path}.restrictions")]
    return {"self_intersections": selfs, "cross_intersections": cross,
            "restrictions": restrictions}


def load_ledger(path) -> dict:
    return ledger_from_dict(load_json(path), str(path))


# -- series ---------------------------------------------------------------------------


def series_to_dict(series) -> dict:
    table = series.table
    return {
        "variables": [v.name for v in table.variables],
        "terms": [
            {"factors": [[table.variables[p].name, e] for p, e in mono],
             "coefficient": encode_rational(c)}
            for mono, c in series.sorted_terms()],
    }


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"
