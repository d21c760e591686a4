"""INI-style run configuration shared by every CLI command.

Sections: [lq] (cost scales and payoff weights), [truth] (true fundamental
and society's misbelief), [support] (productivity bounds), and the optional
[groups] (arrays for the multi-group extension).  Unknown sections or keys
are rejected with the offending line number.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .errors import ConfigError
from .primitives import LQParams, ModelPrimitives, build_lq

if TYPE_CHECKING:  # multigroup loads with the first population() call
    from .multigroup import GroupPopulation

SECTION_KEYS = {
    "lq": {"c", "kappa", "lambda_e", "lambda_a", "delta"},
    "truth": {"mu_star", "beta_star", "mu_hat"},
    "support": {"beta_lo", "beta_hi"},
    "groups": {"alpha", "delta", "beta_star", "mu_star"},
}
REQUIRED_SECTIONS = ("lq", "truth", "support")
REQUIRED_GROUP_KEYS = ("alpha", "delta", "beta_star")


def _line_of(text: str, section: str, key: str | None = None) -> int:
    """Best-effort line number of a section header or key for diagnostics."""
    in_section = False
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip().lower()
            if key is None and name == section:
                return i
            in_section = name == section
        elif key is not None and in_section:
            head = stripped.split("=", 1)[0].split(":", 1)[0].strip().lower()
            if head == key:
                return i
    return 0


@dataclass(frozen=True)
class RunConfig:
    path: str
    sha256: str
    lq: LQParams
    mu_star: float
    beta_star: float
    mu_hat: float
    beta_lo: float
    beta_hi: float
    group_alphas: Optional[tuple[float, ...]] = None
    group_deltas: Optional[tuple[float, ...]] = None
    group_beta_stars: Optional[tuple[float, ...]] = None
    group_mu_stars: Optional[tuple[float, ...]] = None

    @property
    def delta_mu(self) -> float:
        return self.mu_hat - self.mu_star

    def model(self) -> ModelPrimitives:
        try:
            return build_lq(self.lq, self.mu_star, self.beta_star,
                            self.mu_hat, self.beta_lo, self.beta_hi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def population(self) -> GroupPopulation:
        if self.group_alphas is None:
            raise ConfigError("a [groups] section is required for this command")
        from .multigroup import GroupPopulation
        try:
            return GroupPopulation(model=self.model(),
                                   alphas=self.group_alphas,
                                   deltas=self.group_deltas,
                                   beta_stars=self.group_beta_stars,
                                   mu_stars=self.group_mu_stars or ())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _parse_float(text: str, raw: str, section: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        line = _line_of(text, section, key)
        raise ConfigError(f"line {line}: [{section}] {key} = {raw!r} is not "
                          f"{'a number' if value is None else 'finite'}")
    # the closed forms square levers, and a float's ** raises OverflowError
    if not math.isfinite(value * value):
        line = _line_of(text, section, key)
        raise ConfigError(f"line {line}: [{section}] {key} = {raw!r} is too "
                          "large: its square overflows a float")
    return value


def _parse_floats(text: str, raw: str, section: str, key: str) -> tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    if not parts:
        line = _line_of(text, section, key)
        raise ConfigError(f"line {line}: [{section}] {key} must list numbers")
    return tuple(_parse_float(text, p, section, key) for p in parts)


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    for section in parser.sections():
        if section not in SECTION_KEYS:
            line = _line_of(text, section)
            raise ConfigError(f"line {line}: unknown section [{section}]")
        for key in parser[section]:
            if key not in SECTION_KEYS[section]:
                line = _line_of(text, section, key)
                raise ConfigError(f"line {line}: unknown key {key!r} "
                                  f"in section [{section}]")
    for section in REQUIRED_SECTIONS:
        if section not in parser:
            raise ConfigError(f"missing required section [{section}]")

    def need(section: str, key: str) -> str:
        if key not in parser[section]:
            line = _line_of(text, section)
            raise ConfigError(f"line {line}: section [{section}] "
                              f"is missing key {key!r}")
        return parser[section][key]

    lq_kwargs = {k: _parse_float(text, need("lq", k), "lq", k)
                 for k in ("c", "kappa", "lambda_e")}
    for k in ("lambda_a", "delta"):
        if k in parser["lq"]:
            lq_kwargs[k] = _parse_float(text, parser["lq"][k], "lq", k)
    try:
        lq = LQParams(**lq_kwargs)
    except ValueError as exc:
        raise ConfigError(f"line {_line_of(text, 'lq')}: {exc}") from exc

    truth = {k: _parse_float(text, need("truth", k), "truth", k)
             for k in SECTION_KEYS["truth"]}
    support = {k: _parse_float(text, need("support", k), "support", k)
               for k in SECTION_KEYS["support"]}
    if support["beta_lo"] <= 0.0:
        line = _line_of(text, "support", "beta_lo")
        raise ConfigError(f"line {line}: beta_lo must be positive "
                          "(zero leaves productivity unidentified)")
    if support["beta_lo"] >= support["beta_hi"]:
        line = _line_of(text, "support", "beta_hi")
        raise ConfigError(f"line {line}: need beta_lo < beta_hi")
    if not support["beta_lo"] < truth["beta_star"] < support["beta_hi"]:
        line = _line_of(text, "truth", "beta_star")
        raise ConfigError(f"line {line}: beta_star must lie strictly "
                          "inside the support")

    groups: dict[str, tuple[float, ...] | None] = {
        "alpha": None, "delta": None, "beta_star": None, "mu_star": None}
    if "groups" in parser:
        for key in REQUIRED_GROUP_KEYS:
            raw = need("groups", key)
            groups[key] = _parse_floats(text, raw, "groups", key)
        if "mu_star" in parser["groups"]:
            groups["mu_star"] = _parse_floats(text, parser["groups"]["mu_star"],
                                              "groups", "mu_star")
        lengths = {len(v) for v in groups.values() if v is not None}
        if len(lengths) != 1:
            line = _line_of(text, "groups")
            raise ConfigError(f"line {line}: [groups] arrays must have "
                              "matching lengths")

    return RunConfig(
        path=str(path),
        sha256=hashlib.sha256(text.encode()).hexdigest(),
        lq=lq,
        mu_star=truth["mu_star"], beta_star=truth["beta_star"],
        mu_hat=truth["mu_hat"],
        beta_lo=support["beta_lo"], beta_hi=support["beta_hi"],
        group_alphas=groups["alpha"], group_deltas=groups["delta"],
        group_beta_stars=groups["beta_star"], group_mu_stars=groups["mu_star"],
    )
