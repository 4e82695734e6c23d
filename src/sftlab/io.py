"""JSON serialization of models, count data, profiles and series.

All rationals travel as "numerator/denominator" strings (plain integers
accepted) so files round-trip exactly.  Every file carries a versioned
``schema`` field.  Loaders raise ValidationError with a field path on any
malformed input.
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
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, int):
            return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {x!r}: {exc}", path) from None
    raise ValidationError(f"rationals must be strings or integers, got {type(x).__name__}",
                          path)


def _require(obj, key, path):
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a JSON object, got {obj!r}", path)
    if key not in obj:
        raise ValidationError(f"missing field {key!r}", f"{path}.{key}")
    return obj[key]


def _typed(obj, key, path, kind, default=None):
    """obj[key], required to be a JSON list or object (``kind``); required
    unless a default is given."""
    value = _require(obj, key, path) if default is None else obj.get(key, default)
    if not isinstance(value, kind):
        raise ValidationError(f"expected a JSON {'list' if kind is list else 'object'}"
                              f", got {value!r}", f"{path}.{key}")
    return value


def _objects(obj, key, path, required=True):
    """(item path, item) of the JSON list obj[key], each item an object."""
    items = _typed(obj, key, path, list, None if required else [])
    for k, item in enumerate(items):
        ipath = f"{path}.{key}[{k}]"
        if not isinstance(item, dict):
            raise ValidationError(f"expected a JSON object, got {item!r}", ipath)
        yield ipath, item


def _int_value(value, path, minimum=None):
    """value as a JSON integer, else a ValidationError at path."""
    if type(value) is not int:  # bool is an int subclass and is refused too
        raise ValidationError(f"expected an integer, got {value!r}", path)
    if minimum is not None and value < minimum:
        raise ValidationError(f"must be at least {minimum}, got {value}", path)
    return value


def _int_field(obj, key, path, default=None, minimum=None):
    """obj[key] as a JSON integer; required unless a default is given."""
    value = _require(obj, key, path) if default is None else obj.get(key, default)
    return _int_value(value, f"{path}.{key}", minimum)


def _bool_value(value, path):
    """value as a JSON boolean, else a ValidationError at path."""
    if not isinstance(value, bool):
        raise ValidationError(f"expected a boolean, got {value!r}", path)
    return value


def _str_value(value, path):
    """value as a JSON string, else a ValidationError at path."""
    if not isinstance(value, str):
        raise ValidationError(f"expected a string, got {value!r}", path)
    return value


def _correlator_key(model: TargetModel, item, path):
    """The key of a primaries or table-values item: [class, level] pairs."""
    pairs = []
    for i, ins in enumerate(_typed(item, "insertions", path, list)):
        ipath = f"{path}.insertions[{i}]"
        if not isinstance(ins, list) or len(ins) != 2:
            raise ValidationError(f"expected [class, level], got {ins!r}", ipath)
        with under_path(ipath, item=True):
            model.class_index(str(ins[0]))
        pairs.append((ins[0], _int_value(ins[1], f"{ipath}[1]")))
    degree = [_int_value(x, f"{path}.degree[{i}]")
              for i, x in enumerate(_typed(item, "degree", path, list, []))]
    with under_path(path):
        return model.key(pairs, degree)


def _check_schema(obj, expected, path):
    schema = _require(obj, "schema", path)
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
    classes = [(_require(c, "id", cpath), _int_field(c, "degree", cpath))
               for cpath, c in _objects(obj, "classes", path)]
    eta = []
    for i, row in enumerate(_typed(obj, "eta", path, list)):
        if not isinstance(row, list):
            raise ValidationError(f"expected a JSON list, got {row!r}",
                                  f"{path}.eta[{i}]")
        eta.append([decode_rational(x, f"{path}.eta") for x in row])
    cup = obj.get("divisor_cup")
    if cup is not None:
        cup = {cid: {b: decode_rational(v, f"{path}.divisor_cup")
                     for b, v in _typed(cup, cid, f"{path}.divisor_cup", dict).items()}
               for cid in _typed(obj, "divisor_cup", path, dict)}
    pairing = obj.get("divisor_pairing")
    if pairing is not None:
        pairing = [_int_value(x, f"{path}.divisor_pairing[{i}]")
                   for i, x in enumerate(_typed(obj, "divisor_pairing", path, list))]
    unit = _str_value(_require(obj, "unit", path), f"{path}.unit")
    divisor = obj.get("divisor")
    if divisor is not None:
        _str_value(divisor, f"{path}.divisor")
    h2_rank = _int_field(obj, "h2_rank", path, 0, minimum=0)
    chern = [_int_value(c, f"{path}.chern[{i}]")
             for i, c in enumerate(_typed(obj, "chern", path, list, []))]
    with under_path(path):
        model = TargetModel(
            obj.get("name", "model"), classes, unit, eta, h2_rank=h2_rank,
            chern=chern, divisor=divisor, divisor_cup=cup,
            divisor_pairing=pairing)
    for ppath, p in _objects(obj, "primaries", path, required=False):
        key = _correlator_key(model, p, ppath)
        value = decode_rational(_require(p, "value", ppath), f"{ppath}.value")
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
    _check_schema(obj, TABLE_SCHEMA, path)
    table = CorrelatorTable(model)
    for ipath, item in _objects(obj, "values", path, required=False):
        key = _correlator_key(model, item, ipath)
        value = decode_rational(_require(item, "value", ipath), f"{ipath}.value")
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
    value = _typed(entry, end, path, list)
    if len(value) != 2 or not all(isinstance(x, str) for x in value):
        raise ValidationError(f"expected [orbit, flavor], got {value!r}",
                              f"{path}.{end}")
    return tuple(value)


def counts_from_dict(obj, path="counts") -> ChainComplexData:
    """Chain data from a counts file.  Legacy orbit ``multiplicity`` and
    top-level ``wedge_map`` fields are ignored.  A constrained insertion
    needs a hat/check generator set (non-equivariant mode)."""
    _check_schema(obj, COUNTS_SCHEMA, path)
    orbits = []
    for opath, o in _objects(obj, "orbits", path):
        orbits.append(Orbit(_str_value(_require(o, "id", opath), f"{opath}.id"),
                            _int_field(o, "degree", opath),
                            _bool_value(o.get("good", True), f"{opath}.good")))
    equivariant = _bool_value(_require(obj, "equivariant", path),
                              f"{path}.equivariant")
    model = model_from_dict(_require(obj, "model", path), f"{path}.model")
    table = table_from_dict(_require(obj, "table", path), model, f"{path}.table")
    entries = []
    for epath, e in _objects(obj, "entries", path, required=False):
        insertions = _typed(e, "insertions", epath, list, [])
        for i, ins in enumerate(insertions):
            if not isinstance(ins, list) or len(ins) != 3:
                raise ValidationError(f"expected [class, level, constrained], got {ins!r}",
                                      f"{epath}.insertions[{i}]")
        insertions = tuple(
            Insertion(str(c), _int_value(a, f"{epath}.insertions[{i}][1]"),
                      _bool_value(flag, f"{epath}.insertions[{i}][2]"))
            for i, (c, a, flag) in enumerate(insertions))
        if equivariant and any(i.constrained for i in insertions):
            raise ValidationError("constrained insertion in equivariant mode",
                                  f"{epath}.insertions")
        entries.append(CountEntry(
            _generator_key(e, "src", epath), _generator_key(e, "dst", epath),
            insertions,
            tuple(_int_value(x, f"{epath}.degree[{i}]")
                  for i, x in enumerate(_typed(e, "degree", epath, list, []))),
            decode_rational(_require(e, "value", epath), f"{epath}.value")))
    fiber_model = fiber_table = None
    if obj.get("fiber_model") is not None:
        fiber_model = model_from_dict(obj["fiber_model"], f"{path}.fiber_model")
        fiber_table = table_from_dict(_require(obj, "fiber_table", path), fiber_model,
                                      f"{path}.fiber_table")
    level_bound = _int_field(obj, "level_bound", path, 2, minimum=0)
    t_order = _int_field(obj, "t_order", path, 2, minimum=0)
    with under_path(path):
        return ChainComplexData(
            OrbitSet(orbits, equivariant), entries, model, table,
            obj.get("section_choice", "generic"), level_bound, t_order,
            _bool_value(obj.get("contact", False), f"{path}.contact"),
            fiber_model, fiber_table, name=obj.get("name", "counts"))


def load_counts(path) -> ChainComplexData:
    return counts_from_dict(load_json(path), str(path))


def save_counts(data: ChainComplexData, path):
    Path(path).write_text(dumps_canonical(counts_to_dict(data)))


# -- grading / sign profiles -----------------------------------------------------------


def load_profiles(path):
    obj = load_json(path)
    _check_schema(obj, PROFILES_SCHEMA, str(path))
    p = str(path)
    half_dim = _int_field(obj, "half_dim", p)
    q_degrees = obj.get("q_degrees")
    if q_degrees is None and half_dim % 2 == 0:
        raise ValidationError(
            f"a circle profile (no q_degrees) needs an odd half_dim: {half_dim} "
            f"makes every q_n and p_n odd", f"{p}.half_dim")
    if q_degrees is not None:
        q_degrees = {}
        for k, v in _typed(obj, "q_degrees", p, dict).items():
            try:
                cover = int(k)
            except ValueError:
                raise ValidationError(f"cover {k!r} is not an integer",
                                      f"{p}.q_degrees.{k}") from None
            q_degrees[cover] = _int_value(v, f"{p}.q_degrees.{k}")
        least = {}  # deg q_n mod 2 depends only on n mod 2
        for n in sorted(q_degrees):
            m = least.setdefault(n % 2, n)
            if (q_degrees[n] - q_degrees[m]) % 2:
                raise ValidationError(
                    f"deg q_{n} = {q_degrees[n]} and deg q_{m} = {q_degrees[m]} "
                    f"differ in parity, but the parity of deg q_n depends only "
                    f"on n mod 2", f"{p}.q_degrees.{n}")
    signs_obj = {} if obj.get("signs") is None else _typed(obj, "signs", p, dict)
    explicit = {}
    for i, item in enumerate(_typed(signs_obj, "explicit", f"{p}.signs", list, [])):
        epath = f"{p}.signs.explicit[{i}]"
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], list)):
            raise ValidationError(f"expected [[covers], sign], got {item!r}", epath)
        tup, eps = item
        eps = _int_value(eps, f"{epath}[1]")
        if eps not in (-1, 0, 1):
            raise ValidationError(f"sign {eps} for {tup} not in -1..1", epath)
        explicit[tuple(_int_value(n, f"{epath}[0][{j}]")
                       for j, n in enumerate(tup))] = eps
    if explicit and q_degrees is None:
        raise ValidationError("a circle profile (no q_degrees) takes every sign "
                              "+1; explicit signs need q_degrees",
                              f"{p}.signs.explicit")
    if "bad_covers" in signs_obj:  # legacy field: must be the derived set
        declared = {_int_value(b, f"{p}.signs.bad_covers[{i}]") for i, b in
                    enumerate(_typed(signs_obj, "bad_covers", f"{p}.signs", list))}
        if declared != bad_covers(q_degrees):
            raise ValidationError(
                f"declared {sorted(declared)}, but the degrees make "
                f"{sorted(bad_covers(q_degrees))} bad (the even covers whose q "
                f"has the other parity than q_1)", f"{p}.signs.bad_covers")
    return {
        "name": obj.get("name", "profiles"),
        "half_dim": half_dim,
        "cover_bound": _int_field(obj, "cover_bound", p, 3, minimum=1),
        "q_degrees": q_degrees,
        "explicit": explicit,
    }


# -- perturbation ledgers ---------------------------------------------------------------


def _marked_pair(value, path):
    """Two distinct marked points of the five-point moduli space, as a list."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"expected two marked points, got {value!r}", path)
    pair = [_int_value(x, f"{path}[{i}]", minimum=1) for i, x in enumerate(value)]
    if pair[0] == pair[1] or max(pair) > 5:
        raise ValidationError(f"expected two distinct points of 1..5, got {pair}",
                              path)
    return pair


def _labelled_rationals(obj, key, path):
    """obj[key] as a list of [label, rational] items."""
    out = []
    for i, item in enumerate(_typed(obj, key, path, list)):
        ipath = f"{path}.{key}[{i}]"
        if not isinstance(item, list) or len(item) != 2:
            raise ValidationError(f"expected [label, rational], got {item!r}", ipath)
        out.append([item[0], decode_rational(item[1], f"{ipath}[1]")])
    return out


def ledger_from_dict(obj, path="ledger") -> dict:
    """The ``divisors.ledger_check`` / ``restriction_check`` input, validated:
    point pairs as int lists and weights as Fractions."""
    _check_schema(obj, LEDGER_SCHEMA, path)
    selfs = []
    for k, item in enumerate(_typed(obj, "self_intersections", path, list)):
        ipath = f"{path}.self_intersections[{k}]"
        at = _labelled_rationals(item, "at", ipath)
        for j, pt in enumerate(at):
            pt[0] = _marked_pair(pt[0], f"{ipath}.at[{j}][0]")
        selfs.append({
            "divisor": _marked_pair(_require(item, "divisor", ipath),
                                    f"{ipath}.divisor"),
            "weight": decode_rational(_require(item, "weight", ipath),
                                      f"{ipath}.weight"),
            "at": at})
    if not selfs:  # the suite's fault check flips the first entry
        raise ValidationError("needs at least one entry",
                              f"{path}.self_intersections")
    cross = []
    for k, item in enumerate(_typed(obj, "cross_intersections", path, list)):
        ipath = f"{path}.cross_intersections[{k}]"
        cross.append({
            "a": _marked_pair(_require(item, "a", ipath), f"{ipath}.a"),
            "a_weight": decode_rational(_require(item, "a_weight", ipath),
                                        f"{ipath}.a_weight"),
            "b": _marked_pair(_require(item, "b", ipath), f"{ipath}.b"),
            "at": _labelled_rationals(item, "at", ipath)})
    restrictions = {}
    table = _typed(obj, "restrictions", path, dict)
    for label in table:
        rpath = f"{path}.restrictions.{label}"
        parts = label.split(",")
        if not all(x.isdigit() for x in parts):
            raise ValidationError(f"label {label!r} is not 'j,k'", rpath)
        _marked_pair([int(x) for x in parts], rpath)
        restrictions[label] = [
            {"at": _marked_pair(_require(pt, "at", f"{rpath}[{i}]"),
                                f"{rpath}[{i}].at"),
             "contributions": _labelled_rationals(pt, "contributions",
                                                  f"{rpath}[{i}]")}
            for i, pt in enumerate(_typed(table, label, f"{path}.restrictions",
                                          list))]
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
