"""A deterministic port of the TPC-H ``dbgen`` data generator.

The generator follows the specification's structural rules — sparse
orderkeys (8 of every 32), the partsupp supplier-assignment formula, the
retail-price polynomial, date windows around CURRENTDATE = 1995-06-17 — while
simplifying the text grammar to a seeded word-salad that preserves the
selectivity hooks the queries grep for (``%green%``, ``%special%requests%``,
``%Customer%Complaints%``).

Section 3.3.1 of the paper notes that stock dbgen's 32-bit RANDOM overflows
at SF 16000; like the authors we generate keys with a 64-bit generator
(:class:`~repro.common.rng.TpchRandom64`), and
:func:`demonstrate_random_overflow` reproduces the original bug for tests.
"""

from __future__ import annotations

from datetime import date, timedelta

from repro.common.rng import SeedStream, TpchRandom, TpchRandom64
from repro.relational.schema import Database, TableData
from repro.tpch import text
from repro.tpch.schema import SCHEMAS, row_count, sparse_orderkey

START_DATE = "1992-01-01"
CURRENT_DATE = "1995-06-17"
END_DATE = "1998-12-01"

_BASE = date(1992, 1, 1)
_TOTAL_DAYS = (date(1998, 12, 1) - _BASE).days
# o_orderdate is drawn on [STARTDATE, ENDDATE - 151 days].
_MAX_ORDERDATE_OFFSET = _TOTAL_DAYS - 151

# Precomputed ISO strings for every day offset used anywhere in generation.
_DATES: list[str] = [
    (_BASE + timedelta(days=off)).isoformat() for off in range(_TOTAL_DAYS + 152)
]

_ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,"


def retail_price(partkey: int) -> float:
    """The spec's deterministic p_retailprice polynomial."""
    return (90000 + ((partkey // 10) % 20001) + 100 * (partkey % 1000)) / 100.0


def partsupp_suppkey(partkey: int, slot: int, supplier_count: int) -> int:
    """Supplier for a (part, slot) pair — the spec's interleaving formula.

    Every part has 4 supplier slots; the formula spreads them so each
    supplier serves roughly ``4 * parts / suppliers`` parts.
    """
    s = supplier_count
    return (partkey + slot * (s // 4 + (partkey - 1) // s)) % s + 1


class DbGen:
    """Generates a TPC-H database at an arbitrary (fractional) scale factor."""

    def __init__(self, scale_factor: float, seed: int = 19620718):
        if scale_factor <= 0:
            raise ValueError("scale factor must be positive")
        self.scale_factor = scale_factor
        self.seeds = SeedStream(seed)
        self.customers = row_count("customer", scale_factor)
        self.orders = row_count("orders", scale_factor)
        self.parts = row_count("part", scale_factor)
        self.suppliers = max(4, row_count("supplier", scale_factor))

    # -- text helpers ---------------------------------------------------------

    def _words(self, rng: TpchRandom64, low: int, high: int) -> str:
        count = rng.random_int(low, high)
        return " ".join(rng.choices(text.COMMENT_WORDS, count))

    def _address(self, rng: TpchRandom64) -> str:
        length = rng.random_int(10, 40)
        return "".join(rng.choices(_ALNUM, length)).strip()

    def _phone(self, rng: TpchRandom64, nationkey: int) -> str:
        return (
            f"{nationkey + 10:02d}-{rng.random_int(100, 999)}"
            f"-{rng.random_int(100, 999)}-{rng.random_int(1000, 9999)}"
        )

    # -- fixed tables ----------------------------------------------------------

    def gen_region(self) -> TableData:
        rng = self.seeds.rng_for("region")
        table = TableData("region", SCHEMAS["region"])
        for key, name in enumerate(text.REGIONS):
            table.append(
                {"r_regionkey": key, "r_name": name, "r_comment": self._words(rng, 3, 8)}
            )
        return table

    def gen_nation(self) -> TableData:
        rng = self.seeds.rng_for("nation")
        table = TableData("nation", SCHEMAS["nation"])
        for key, (name, regionkey) in enumerate(text.NATIONS):
            table.append(
                {
                    "n_nationkey": key,
                    "n_name": name,
                    "n_regionkey": regionkey,
                    "n_comment": self._words(rng, 3, 8),
                }
            )
        return table

    # -- scaling tables ----------------------------------------------------------

    def gen_supplier(self) -> TableData:
        rng = self.seeds.rng_for("supplier")
        table = TableData("supplier", SCHEMAS["supplier"])
        # The spec plants 5 "Customer ... Complaints" and 5 "Customer ...
        # Recommends" comments per 10,000 suppliers; at fractional scale we
        # keep at least one of each so Q16's anti-join stays exercised.
        planted = max(1, round(self.suppliers * 5 / 10_000))
        complain = set()
        recommend = set()
        while len(complain) < planted:
            complain.add(rng.random_int(1, self.suppliers))
        while len(recommend) < planted:
            candidate = rng.random_int(1, self.suppliers)
            if candidate not in complain:
                recommend.add(candidate)
        for key in range(1, self.suppliers + 1):
            nationkey = rng.random_int(0, 24)
            comment = self._words(rng, 5, 10)
            if key in complain:
                comment = f"{comment} Customer wishes Complaints {comment[:10]}"
            elif key in recommend:
                comment = f"{comment} Customer truly Recommends {comment[:10]}"
            table.append(
                {
                    "s_suppkey": key,
                    "s_name": f"Supplier#{key:09d}",
                    "s_address": self._address(rng),
                    "s_nationkey": nationkey,
                    "s_phone": self._phone(rng, nationkey),
                    "s_acctbal": rng.random_int(-99999, 999999) / 100.0,
                    "s_comment": comment,
                }
            )
        return table

    def gen_customer(self) -> TableData:
        rng = self.seeds.rng_for("customer")
        table = TableData("customer", SCHEMAS["customer"])
        for key in range(1, self.customers + 1):
            nationkey = rng.random_int(0, 24)
            table.append(
                {
                    "c_custkey": key,
                    "c_name": f"Customer#{key:09d}",
                    "c_address": self._address(rng),
                    "c_nationkey": nationkey,
                    "c_phone": self._phone(rng, nationkey),
                    "c_acctbal": rng.random_int(-99999, 999999) / 100.0,
                    "c_mktsegment": rng.choice(text.SEGMENTS),
                    "c_comment": self._words(rng, 6, 12),
                }
            )
        return table

    def gen_part(self) -> TableData:
        rng = self.seeds.rng_for("part")
        table = TableData("part", SCHEMAS["part"])
        types = text.all_part_types()
        containers = text.all_containers()
        for key in range(1, self.parts + 1):
            words = []
            while len(words) < 5:
                word = rng.choice(text.P_NAME_WORDS)
                if word not in words:
                    words.append(word)
            mfgr = rng.random_int(1, 5)
            table.append(
                {
                    "p_partkey": key,
                    "p_name": " ".join(words),
                    "p_mfgr": f"Manufacturer#{mfgr}",
                    "p_brand": f"Brand#{mfgr}{rng.random_int(1, 5)}",
                    "p_type": rng.choice(types),
                    "p_size": rng.random_int(1, 50),
                    "p_container": rng.choice(containers),
                    "p_retailprice": retail_price(key),
                    "p_comment": self._words(rng, 2, 5),
                }
            )
        return table

    def gen_partsupp(self) -> TableData:
        rng = self.seeds.rng_for("partsupp")
        table = TableData("partsupp", SCHEMAS["partsupp"])
        for partkey in range(1, self.parts + 1):
            for slot in range(4):
                table.append(
                    {
                        "ps_partkey": partkey,
                        "ps_suppkey": partsupp_suppkey(partkey, slot, self.suppliers),
                        "ps_availqty": rng.random_int(1, 9999),
                        "ps_supplycost": rng.random_int(100, 100_000) / 100.0,
                        "ps_comment": self._words(rng, 10, 20),
                    }
                )
        return table

    def gen_orders_and_lineitem(self) -> tuple[TableData, TableData]:
        """Orders and lineitem are generated together (shared dates/status)."""
        rng = self.seeds.rng_for("orders")
        orders = TableData("orders", SCHEMAS["orders"])
        lineitem = TableData("lineitem", SCHEMAS["lineitem"])
        clerks = max(1, int(1000 * self.scale_factor))
        for index in range(1, self.orders + 1):
            orderkey = sparse_orderkey(index)
            # Only customers with custkey not divisible by 3 place orders.
            while True:
                custkey = rng.random_int(1, self.customers)
                if custkey % 3 != 0:
                    break
            date_offset = rng.random_int(0, _MAX_ORDERDATE_OFFSET)
            orderdate = _DATES[date_offset]

            total = 0.0
            statuses = []
            line_count = rng.random_int(1, 7)
            for linenumber in range(1, line_count + 1):
                partkey = rng.random_int(1, self.parts)
                suppkey = partsupp_suppkey(partkey, rng.random_int(0, 3), self.suppliers)
                quantity = float(rng.random_int(1, 50))
                extended = quantity * retail_price(partkey)
                discount = rng.random_int(0, 10) / 100.0
                tax = rng.random_int(0, 8) / 100.0
                ship_offset = date_offset + rng.random_int(1, 121)
                commit_offset = date_offset + rng.random_int(30, 90)
                receipt_offset = ship_offset + rng.random_int(1, 30)
                shipdate = _DATES[ship_offset]
                receiptdate = _DATES[receipt_offset]
                if receiptdate <= CURRENT_DATE:
                    returnflag = "R" if rng.random_int(0, 1) else "A"
                else:
                    returnflag = "N"
                linestatus = "O" if shipdate > CURRENT_DATE else "F"
                statuses.append(linestatus)
                total += extended * (1.0 + tax) * (1.0 - discount)
                comment = self._words(rng, 2, 6)
                lineitem.append(
                    {
                        "l_orderkey": orderkey,
                        "l_partkey": partkey,
                        "l_suppkey": suppkey,
                        "l_linenumber": linenumber,
                        "l_quantity": quantity,
                        "l_extendedprice": extended,
                        "l_discount": discount,
                        "l_tax": tax,
                        "l_returnflag": returnflag,
                        "l_linestatus": linestatus,
                        "l_shipdate": shipdate,
                        "l_commitdate": _DATES[commit_offset],
                        "l_receiptdate": receiptdate,
                        "l_shipinstruct": rng.choice(text.INSTRUCTIONS),
                        "l_shipmode": rng.choice(text.MODES),
                        "l_comment": comment,
                    }
                )

            if all(s == "F" for s in statuses):
                orderstatus = "F"
            elif all(s == "O" for s in statuses):
                orderstatus = "O"
            else:
                orderstatus = "P"
            comment = self._words(rng, 4, 10)
            # Plant the Q13 needle at the spec's ~5% effective rate.
            if rng.random_int(1, 100) <= 5:
                comment = f"{comment} special handling requests {comment[:8]}"
            orders.append(
                {
                    "o_orderkey": orderkey,
                    "o_custkey": custkey,
                    "o_orderstatus": orderstatus,
                    "o_totalprice": round(total, 2),
                    "o_orderdate": orderdate,
                    "o_orderpriority": rng.choice(text.PRIORITIES),
                    "o_clerk": f"Clerk#{rng.random_int(1, clerks):09d}",
                    "o_shippriority": 0,
                    "o_comment": comment,
                }
            )
        return orders, lineitem

    def generate(self) -> Database:
        """Generate the full eight-table database."""
        db = Database()
        db.add(self.gen_region())
        db.add(self.gen_nation())
        db.add(self.gen_supplier())
        db.add(self.gen_customer())
        db.add(self.gen_part())
        db.add(self.gen_partsupp())
        orders, lineitem = self.gen_orders_and_lineitem()
        db.add(orders)
        db.add(lineitem)
        return db


def demonstrate_random_overflow(scale_factor: int, samples: int = 2000) -> list[int]:
    """Reproduce the paper's dbgen bug: partkeys drawn with 32-bit RANDOM.

    Returns the sampled keys; at SF 16000 some are negative (the overflow the
    authors fixed by switching to RANDOM64).
    """
    rng = TpchRandom(seed=902)
    high = scale_factor * 200_000
    return [rng.random_int(1, high) for _ in range(samples)]
