"""JSON schemas (draft 2020-12 dialect) for the machine-readable outputs.

Report payloads carry ``"schema": "v1"``; these dicts are what the test
suite validates CLI output against.
"""

from .cli import SCHEMA_VERSION

RATIONAL = {"type": "string", "pattern": r"^-?[0-9]+(/[0-9]+)?$"}

POSET = {
    "type": "object",
    "required": ["elements", "covers"],
    "properties": {
        "elements": {"type": "array", "items": {"type": "string"}},
        "covers": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "string"},
                      "minItems": 2, "maxItems": 2},
        },
    },
}

POLYNOMIAL = {
    "type": "object",
    "required": ["basis", "coeffs"],
    "properties": {
        "basis": {"enum": ["binomial", "monomial"]},
        "coeffs": {"type": "object", "additionalProperties": RATIONAL},
    },
}

SERIES = {
    "type": "object",
    "required": ["mode", "coeffs"],
    "properties": {
        "mode": {"enum": ["strict", "weak"]},
        "coeffs": {"type": "object", "additionalProperties": RATIONAL},
        "provenance": {"oneOf": [POSET, {"type": "null"}]},
    },
}

CLOSED_FORM = {
    "type": "object",
    "required": ["numerator", "den_power"],
    "properties": {
        "numerator": {"type": "array", "items": RATIONAL},
        "den_power": {"type": "integer", "minimum": 1},
    },
}

ZETA_EXPR = {
    "type": "object",
    "required": ["constant", "zeta_coeffs"],
    "properties": {
        "constant": RATIONAL,
        "zeta_coeffs": {"type": "object", "additionalProperties": RATIONAL},
    },
}

IDENTITY_RECORD = {
    "type": "object",
    "required": ["lhs", "rhs", "numeric", "pass"],
    "properties": {
        "poset": {"oneOf": [POSET, {"type": "null"}]},
        "lhs": {"type": "string"},
        "rhs": ZETA_EXPR,
        "numeric": {
            "type": "object",
            "properties": {
                "lhs": {"type": ["string", "null"]},
                "rhs": {"type": ["string", "null"]},
                "bound": {"type": ["number", "null"]},
            },
        },
        "pass": {"type": ["boolean", "null"]},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}

ENUMERATION_REPORT = {
    "type": "object",
    "required": ["schema", "poset", "d", "strict_poly", "weak_poly"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "poset": POSET,
        "d": {"type": "array", "items": {"type": "integer"}},
        "strict_poly": POLYNOMIAL,
        "weak_poly": POLYNOMIAL,
        "discrepancies": {"type": "array"},
    },
}

SERIES_REPORT = {
    "type": "object",
    "required": ["schema", "series", "closed_form"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "series": SERIES,
        "closed_form": CLOSED_FORM,
    },
}

VALUE_REPORT = {
    "type": "object",
    "required": ["schema", "value"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "value": {},
    },
}

IDENTITY_REPORT = {
    "type": "object",
    "required": ["schema", "record"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "record": IDENTITY_RECORD,
    },
}

SUITE_CASE = {
    "type": "object",
    "required": ["id", "status"],
    "properties": {
        "id": {"type": "string"},
        "status": {"enum": ["PASS", "FAIL", "FLAG"]},
        "detail": {"type": "string"},
    },
}

SUITE_REPORT = {
    "type": "object",
    "required": ["schema", "cases", "all_pass"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "cases": {"type": "array", "items": SUITE_CASE},
        "all_pass": {"type": "boolean"},
    },
}
