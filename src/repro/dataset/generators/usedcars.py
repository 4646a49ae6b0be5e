"""Synthetic used-car dataset in the image of the paper's YahooUsedCar scrape.

The paper scraped Yahoo's used-car listings into a 40,000 x 11 table
(Sec. 6.1).  That site is long gone, so we generate a synthetic table with

* the same scale (default 40,000 tuples, 11 attributes),
* the attribute names of Example 1 / Table 1
  (``Make``, ``Model``, ``BodyType``, ``Price``, ``Mileage``, ``Year``,
  ``Engine``, ``Drivetrain``, ``Transmission``, ``Color``, ``FuelEconomy``),
* explicit *conditional attribute dependencies*, which is precisely the
  structure a CAD View summarizes:

  - ``Model`` functionally determines ``Make`` and ``BodyType``;
  - ``Engine`` and ``Drivetrain`` are drawn from per-model option lists
    (e.g. Wranglers are 4WD, Equinoxes are mostly V4/V6 2WD/AWD);
  - ``Price`` depreciates with age and ``Mileage`` and is anchored at a
    per-model base price (so Suburbans cost more than Captivas);
  - ``Mileage`` grows with age;
  - ``FuelEconomy`` falls with engine size and body weight.

The model catalog deliberately contains the Table 1 vehicles (Traverse LT,
Equinox LT, Suburban 1500 LT, Tahoe LT, Captiva LS, Escape XLT/Ltd.,
Explorer XLT/Ltd., Edge Ltd./SEL, Wrangler Unlimited, Compass Sport,
Patriot Sport, Liberty Sport, ...) so the reproduction of Table 1 shows
recognizable IUnits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.generators._weighted import option_table
from repro.dataset.schema import AttrKind, Attribute, Schema
from repro.dataset.table import Table

__all__ = ["CarModel", "CAR_CATALOG", "usedcars_schema", "generate_usedcars"]


@dataclass(frozen=True)
class CarModel:
    """One entry of the synthetic vehicle catalog.

    ``engines`` and ``drivetrains`` are (value, weight) option lists; the
    weights need not sum to one.  ``base_price`` is the as-new price used
    by the depreciation curve; ``popularity`` scales how often the model
    appears in listings.
    """

    make: str
    model: str
    body: str
    base_price: float
    engines: Tuple[Tuple[str, float], ...]
    drivetrains: Tuple[Tuple[str, float], ...]
    mpg_base: float
    popularity: float = 1.0


def _suv(make, model, price, engines, drives, mpg, pop=1.0):
    return CarModel(make, model, "SUV", price, tuple(engines), tuple(drives), mpg, pop)


def _sedan(make, model, price, engines, mpg, pop=1.0):
    return CarModel(
        make, model, "Sedan", price, tuple(engines),
        (("2WD", 0.9), ("AWD", 0.1)), mpg, pop,
    )


def _truck(make, model, price, engines, mpg, pop=1.0):
    return CarModel(
        make, model, "Truck", price, tuple(engines),
        (("4WD", 0.6), ("2WD", 0.4)), mpg, pop,
    )


#: The vehicle catalog.  Models functionally determine make and body type,
#: and carry their own engine/drivetrain distributions and price anchors.
CAR_CATALOG: Tuple[CarModel, ...] = (
    # --- Chevrolet SUVs (Table 1, row 1) ---
    _suv("Chevrolet", "Traverse LT", 34000,
         [("V6", 1.0)], [("AWD", 0.6), ("2WD", 0.4)], 19, 1.4),
    _suv("Chevrolet", "Equinox LT", 28000,
         [("V4", 0.6), ("V6", 0.4)], [("AWD", 0.4), ("2WD", 0.6)], 24, 1.6),
    _suv("Chevrolet", "Suburban 1500 LT", 52000,
         [("V8", 1.0)], [("4WD", 0.55), ("2WD", 0.45)], 15, 0.9),
    _suv("Chevrolet", "Tahoe LT", 50000,
         [("V8", 1.0)], [("4WD", 0.6), ("2WD", 0.4)], 15, 1.0),
    _suv("Chevrolet", "Captiva LS", 24000,
         [("V4", 1.0)], [("2WD", 1.0)], 25, 0.8),
    _sedan("Chevrolet", "Malibu LT", 24000, [("V4", 0.8), ("V6", 0.2)], 29, 1.3),
    _sedan("Chevrolet", "Impala LT", 28000, [("V6", 1.0)], 22, 0.9),
    _truck("Chevrolet", "Silverado 1500", 35000, [("V8", 0.8), ("V6", 0.2)], 16, 1.3),
    # --- Ford SUVs (Table 1, row 2) ---
    _suv("Ford", "Escape XLT", 26000,
         [("V4", 0.55), ("V6", 0.45)], [("2WD", 0.6), ("4WD", 0.4)], 23, 1.6),
    _suv("Ford", "Escape Ltd.", 29000,
         [("V4", 0.45), ("V6", 0.55)], [("2WD", 0.55), ("4WD", 0.45)], 22, 1.1),
    _suv("Ford", "Explorer XLT", 36000,
         [("V6", 1.0)], [("4WD", 0.65), ("2WD", 0.35)], 18, 1.2),
    _suv("Ford", "Explorer Ltd.", 41000,
         [("V6", 0.6), ("V8", 0.4)], [("4WD", 0.5), ("2WD", 0.5)], 17, 0.9),
    _suv("Ford", "Edge Ltd.", 34000,
         [("V6", 1.0)], [("AWD", 0.5), ("2WD", 0.5)], 21, 1.0),
    _suv("Ford", "Edge SEL", 31000,
         [("V6", 1.0)], [("AWD", 0.45), ("2WD", 0.55)], 21, 1.1),
    _suv("Ford", "Expedition XLT", 45000,
         [("V8", 1.0)], [("4WD", 0.6), ("2WD", 0.4)], 14, 0.7),
    _sedan("Ford", "Fusion SE", 25000, [("V4", 0.8), ("V6", 0.2)], 28, 1.4),
    _truck("Ford", "F-150 XLT", 36000, [("V8", 0.7), ("V6", 0.3)], 16, 1.5),
    # --- Honda SUVs ---
    _suv("Honda", "CR-V EX", 27000,
         [("V4", 1.0)], [("AWD", 0.5), ("2WD", 0.5)], 26, 1.7),
    _suv("Honda", "CR-V LX", 25000,
         [("V4", 1.0)], [("AWD", 0.4), ("2WD", 0.6)], 26, 1.3),
    _suv("Honda", "Pilot EX-L", 37000,
         [("V6", 1.0)], [("4WD", 0.55), ("2WD", 0.45)], 19, 1.0),
    _sedan("Honda", "Accord EX", 27000, [("V4", 0.75), ("V6", 0.25)], 30, 1.6),
    _sedan("Honda", "Civic LX", 21000, [("V4", 1.0)], 33, 1.8),
    # --- Toyota SUVs ---
    _suv("Toyota", "RAV4 XLE", 27000,
         [("V4", 1.0)], [("AWD", 0.5), ("2WD", 0.5)], 26, 1.6),
    _suv("Toyota", "Highlander SE", 38000,
         [("V6", 0.85), ("V4", 0.15)], [("AWD", 0.55), ("2WD", 0.45)], 20, 1.1),
    _suv("Toyota", "4Runner SR5", 37000,
         [("V6", 1.0)], [("4WD", 0.75), ("2WD", 0.25)], 18, 0.9),
    _sedan("Toyota", "Camry LE", 24000, [("V4", 0.8), ("V6", 0.2)], 30, 1.8),
    _sedan("Toyota", "Corolla LE", 20000, [("V4", 1.0)], 33, 1.7),
    _truck("Toyota", "Tacoma SR5", 30000, [("V6", 0.7), ("V4", 0.3)], 19, 1.0),
    # --- Jeep SUVs (Table 1, last row) ---
    _suv("Jeep", "Wrangler Unlimited", 33000,
         [("V6", 0.8), ("V8", 0.2)], [("4WD", 1.0)], 17, 1.3),
    _suv("Jeep", "Compass Sport", 23000,
         [("V4", 1.0)], [("4WD", 0.5), ("2WD", 0.5)], 25, 1.0),
    _suv("Jeep", "Patriot Sport", 22000,
         [("V4", 1.0)], [("4WD", 0.5), ("2WD", 0.5)], 25, 1.0),
    _suv("Jeep", "Liberty Sport", 25000,
         [("V6", 1.0)], [("4WD", 0.55), ("2WD", 0.45)], 18, 1.0),
    _suv("Jeep", "Grand Cherokee Laredo", 37000,
         [("V6", 0.7), ("V8", 0.3)], [("4WD", 0.7), ("2WD", 0.3)], 17, 1.1),
    # --- Other makes: broaden the Make domain like a real listing site ---
    _suv("Nissan", "Rogue SV", 26000,
         [("V4", 1.0)], [("AWD", 0.5), ("2WD", 0.5)], 26, 1.2),
    _suv("Nissan", "Pathfinder S", 34000,
         [("V6", 1.0)], [("4WD", 0.55), ("2WD", 0.45)], 19, 0.8),
    _sedan("Nissan", "Altima S", 24000, [("V4", 0.85), ("V6", 0.15)], 30, 1.4),
    _suv("Hyundai", "Santa Fe GLS", 28000,
         [("V4", 0.5), ("V6", 0.5)], [("AWD", 0.45), ("2WD", 0.55)], 23, 0.9),
    _sedan("Hyundai", "Sonata GLS", 22000, [("V4", 1.0)], 31, 1.2),
    _suv("Kia", "Sorento LX", 26000,
         [("V4", 0.55), ("V6", 0.45)], [("AWD", 0.45), ("2WD", 0.55)], 23, 0.9),
    _sedan("Kia", "Optima LX", 21000, [("V4", 1.0)], 30, 1.0),
    _suv("GMC", "Acadia SLE", 35000,
         [("V6", 1.0)], [("AWD", 0.55), ("2WD", 0.45)], 19, 0.8),
    _truck("GMC", "Sierra 1500", 36000, [("V8", 0.8), ("V6", 0.2)], 16, 0.9),
    _suv("Dodge", "Durango SXT", 33000,
         [("V6", 0.7), ("V8", 0.3)], [("AWD", 0.5), ("2WD", 0.5)], 17, 0.7),
    _sedan("Dodge", "Charger SE", 28000, [("V6", 0.7), ("V8", 0.3)], 22, 0.8),
    _suv("Subaru", "Outback 2.5i", 27000,
         [("V4", 1.0)], [("AWD", 1.0)], 26, 1.0),
    _suv("Subaru", "Forester 2.5X", 25000,
         [("V4", 1.0)], [("AWD", 1.0)], 25, 1.0),
    _sedan("BMW", "328i", 38000, [("V6", 0.8), ("V4", 0.2)], 26, 0.7),
    _suv("BMW", "X5 xDrive35i", 56000,
         [("V6", 0.7), ("V8", 0.3)], [("AWD", 1.0)], 18, 0.5),
    _sedan("Mercedes-Benz", "C300", 40000, [("V6", 1.0)], 24, 0.6),
    _suv("Mercedes-Benz", "ML350", 52000,
         [("V6", 0.8), ("V8", 0.2)], [("AWD", 1.0)], 18, 0.4),
    _sedan("Volkswagen", "Jetta SE", 21000, [("V4", 1.0)], 30, 1.0),
    _sedan("Mazda", "Mazda3 i", 20000, [("V4", 1.0)], 31, 1.0),
    _suv("Mazda", "CX-9 Touring", 33000,
         [("V6", 1.0)], [("AWD", 0.5), ("2WD", 0.5)], 18, 0.6),
)

#: Exterior colors with listing-frequency weights.
_COLORS: Tuple[Tuple[str, float], ...] = (
    ("White", 0.21), ("Black", 0.19), ("Silver", 0.16), ("Gray", 0.15),
    ("Blue", 0.09), ("Red", 0.09), ("Brown", 0.04), ("Green", 0.03),
    ("Beige", 0.02), ("Orange", 0.02),
)

_CURRENT_YEAR = 2013  # the paper's data era (Table 1 shows 2010-2012 cars)
_MIN_YEAR = 2002


def usedcars_schema(queriable: Optional[Sequence[str]] = None) -> Schema:
    """The 11-attribute used-car schema.

    ``queriable`` restricts which attributes the front-end exposes; by
    default ``Engine`` is hidden, mirroring the paper's Limitation 2
    ("the number of cylinders ... is not available to Mary through her
    forms-based interface").
    """
    schema = Schema([
        Attribute("Make", AttrKind.CATEGORICAL, description="manufacturer"),
        Attribute("Model", AttrKind.CATEGORICAL, description="trim-level model"),
        Attribute("BodyType", AttrKind.CATEGORICAL, description="SUV/Sedan/Truck"),
        Attribute("Price", AttrKind.NUMERIC, description="asking price, USD"),
        Attribute("Mileage", AttrKind.NUMERIC, description="odometer, miles"),
        Attribute("Year", AttrKind.ORDINAL, description="model year"),
        Attribute("Engine", AttrKind.CATEGORICAL, queriable=False,
                  description="engine configuration (hidden attribute)"),
        Attribute("Drivetrain", AttrKind.CATEGORICAL,
                  description="2WD/4WD/AWD"),
        Attribute("Transmission", AttrKind.CATEGORICAL,
                  description="Automatic/Manual"),
        Attribute("Color", AttrKind.CATEGORICAL, description="exterior color"),
        Attribute("FuelEconomy", AttrKind.NUMERIC,
                  description="combined MPG"),
    ])
    if queriable is not None:
        schema = schema.with_queriable(queriable)
    return schema


#: Per-row price and fuel-economy adjustments by engine and drivetrain.
_ENGINE_PREMIUM = {"V4": 0.0, "V6": 0.04, "V8": 0.09}
_DRIVE_PREMIUM = {"2WD": 0.0, "AWD": 0.03, "4WD": 0.05}
_ENGINE_MPG_PENALTY = {"V4": 0.0, "V6": 1.5, "V8": 3.5}
_DRIVE_MPG_PENALTY = {"2WD": 0.0, "AWD": 0.8, "4WD": 1.2}


def _year_windows(catalog: Sequence[CarModel]) -> List[Tuple[int, int]]:
    """Each model's ``(first, last)`` model year on the market.

    Each trim-level model is prominent for only a short production
    window (the paper's Sec. 3.1.1 anecdote: "a specific model is
    prominent in the database for only a short period of time", which
    is why Model outranks Mileage when the pivot is Year).  Windows are
    staggered deterministically across the catalog.
    """
    span = _CURRENT_YEAR - _MIN_YEAR
    table1_makes = {"Chevrolet", "Ford", "Honda", "Toyota", "Jeep"}
    windows = []
    for i, m in enumerate(catalog):
        length = 2 + (i * 5) % 3  # 2..4 model years
        if m.body == "SUV" and m.make in table1_makes:
            # keep the Table 1 vehicles on the market in recent years so
            # the paper's running example (recent low-mileage SUVs from
            # these five makes) stays reproducible
            hi = _CURRENT_YEAR - i % 2
        else:
            hi = _CURRENT_YEAR - (i * 3) % (span - length)
        windows.append((hi - length + 1, hi))
    return windows


def _bisect_table(
    options: Sequence[Tuple[str, float]],
) -> Tuple[Tuple[str, ...], List[float]]:
    values, cdf = option_table(options)
    return values, cdf.tolist()


def generate_usedcars(
    n: int = 40_000,
    seed: int = 7,
    catalog: Sequence[CarModel] = CAR_CATALOG,
    queriable: Optional[Sequence[str]] = None,
) -> Table:
    """Generate the synthetic used-car table.

    Parameters
    ----------
    n:
        Number of listings (the paper uses 40,000).
    seed:
        RNG seed — generation is fully deterministic given (n, seed).
    catalog:
        Vehicle catalog; defaults to :data:`CAR_CATALOG`.  Every
        model's option lists are validated up front, drawn or not.
    queriable:
        Optional list of queriable attribute names (see
        :func:`usedcars_schema`).

    Each row draws, in this order: a gamma (age), two normals
    (mileage), one uniform each for engine, drivetrain, transmission
    and color, and two normals (price, fuel economy).  Gamma and normal
    draws consume a variable number of RNG words, so the rows stay a
    loop; a weighted pick is one ``rng.random()`` looked up in its
    option list's cdf, which is the draw ``rng.choice(p=...)`` makes
    (DESIGN.md section 16).
    """
    rng = np.random.default_rng(seed)
    pop = np.array([m.popularity for m in catalog], dtype=float)
    pop /= pop.sum()
    model_idx = rng.choice(len(catalog), size=n, p=pop)

    windows = _year_windows(catalog)
    engine_tables = [_bisect_table(m.engines) for m in catalog]
    drive_tables = [_bisect_table(m.drivetrains) for m in catalog]
    color_values, color_cdf = _bisect_table(_COLORS)
    max_age = _CURRENT_YEAR - _MIN_YEAR
    gamma, normal, random = rng.gamma, rng.normal, rng.random

    makes: List[str] = []
    models: List[str] = []
    bodies: List[str] = []
    prices = np.empty(n)
    mileages = np.empty(n)
    years = np.empty(n)
    engines: List[str] = []
    drivetrains: List[str] = []
    transmissions: List[str] = []
    colors: List[str] = []
    mpgs = np.empty(n)

    for i, mi in enumerate(model_idx.tolist()):
        m = catalog[mi]
        makes.append(m.make)
        models.append(m.model)
        bodies.append(m.body)

        # Age skews young: used-listing sites are dominated by recent
        # cars — but the year must fall inside the model's window.
        lo_year, hi_year = windows[mi]
        age = min(max_age, int(gamma(2.0, 1.8)))
        year = min(max(_CURRENT_YEAR - age, lo_year), hi_year)
        age = _CURRENT_YEAR - year
        years[i] = year

        # Mileage ~ 8K-17K miles/year: drivers vary a lot, so mileage is a
        # noisy proxy for age (as in real listings).
        per_year = normal(12_500, 4_500)
        mileage = max(500.0, age * per_year + normal(0, 8_000) + 6_000)
        mileages[i] = round(mileage, -2)

        values, cdf = engine_tables[mi]
        engine = values[bisect_right(cdf, random())]
        engines.append(engine)
        values, cdf = drive_tables[mi]
        drivetrain = values[bisect_right(cdf, random())]
        drivetrains.append(drivetrain)

        # Manual transmissions are rare and concentrated in small engines.
        p_manual = 0.12 if engine == "V4" else 0.04
        transmissions.append("Manual" if random() < p_manual else "Automatic")
        colors.append(color_values[bisect_right(color_cdf, random())])

        # Price: exponential depreciation in age plus mileage penalty.
        value = (
            m.base_price
            * (1.0 + _ENGINE_PREMIUM[engine] + _DRIVE_PREMIUM[drivetrain])
            * (0.85 ** age)
            * (1.0 - min(0.25, mileage / 600_000.0))
        )
        prices[i] = max(1_500.0, round(value * normal(1.0, 0.06), -2))

        # Fuel economy: model anchor, engine penalty, drivetrain penalty.
        mpg = (
            m.mpg_base
            - _ENGINE_MPG_PENALTY[engine]
            - _DRIVE_MPG_PENALTY[drivetrain]
            + normal(0, 0.8)
        )
        mpgs[i] = round(max(10.0, mpg), 1)

    schema = usedcars_schema(queriable)
    return Table.from_columns(schema, {
        "Make": makes,
        "Model": models,
        "BodyType": bodies,
        "Price": prices,
        "Mileage": mileages,
        "Year": years,
        "Engine": engines,
        "Drivetrain": drivetrains,
        "Transmission": transmissions,
        "Color": colors,
        "FuelEconomy": mpgs,
    })
