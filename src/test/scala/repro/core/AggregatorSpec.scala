package repro.core

import repro.{Oracle, SparkSpec}
import scala.util.Random

/** Composite aggregators: representation F(r) against the DuckDB oracle,
  * distance and Eq.-1 lower-bound math (incl. the paper's worked examples).
  */
class AggregatorSpec extends SparkSpec {

  // --- worked examples from the paper -------------------------------------

  test("Example 4: distances of r1 and r2 to rq") {
    val spec = CompositeAggregator(
      Seq(DistAgg("category", Seq("Apartment", "Supermarket", "Restaurant", "Bus stop")),
          AvgAgg("price")),
      Array(1, 1, 1, 1, 1))
    val rq = Array(2.0, 1, 1, 1, 1.75)
    val r1 = Array(3.0, 1, 1, 1, 1.6)
    val r2 = Array(2.0, 0, 2, 0, 2.9)
    assert(math.abs(spec.distance(r1, rq) - 1.15) < 1e-9)
    assert(math.abs(spec.distance(r2, rq) - 4.15) < 1e-9)
  }

  test("Example 7: Eq.-1 lower bounds of dirty cells") {
    val spec = CompositeAggregator(Seq(DistAgg("color", Seq("red", "blue"))), Array(1, 1))
    val rq = Array(1.0, 1.0)
    // g2,1: bounded by v̲=(0,0), v̄=(2,0) → lb = 1 (blue dim unreachable)
    assert(math.abs(spec.lowerBound(Array(0, 0), Array(2, 0), rq) - 1.0) < 1e-9)
    // g5,1: v̲=(0,1), v̄=(2,1) → lb = 0
    assert(math.abs(spec.lowerBound(Array(0, 1), Array(2, 1), rq) - 0.0) < 1e-9)
  }

  // --- metric properties ---------------------------------------------------

  for (seed <- 1 to 10) test(s"Eq.-1 bound never exceeds the true distance (seed $seed)") {
    val rng = new Random(seed)
    val spec = TestGen.specs(5) // weighted
    for (_ <- 1 to 200) {
      val lo = Array.fill(spec.dim)(rng.nextDouble() * 10 - 5)
      val hi = lo.map(_ + rng.nextDouble() * 5)
      val v = lo.indices.map(i => lo(i) + rng.nextDouble() * (hi(i) - lo(i))).toArray
      val t = Array.fill(spec.dim)(rng.nextDouble() * 10 - 5)
      assert(spec.lowerBound(lo, hi, t) <= spec.distance(v, t) + 1e-9)
    }
  }

  test("distance is symmetric, zero on identical vectors, weight-scaled") {
    val spec = TestGen.specs(5)
    val rng = new Random(42)
    for (_ <- 1 to 100) {
      val u = Array.fill(spec.dim)(rng.nextDouble()); val v = Array.fill(spec.dim)(rng.nextDouble())
      assert(math.abs(spec.distance(u, v) - spec.distance(v, u)) < 1e-12)
      assert(spec.distance(u, u) == 0.0)
    }
    val one = CompositeAggregator(Seq(AvgAgg("v")), Array(3.0))
    assert(math.abs(one.distance(Array(2.0), Array(5.0)) - 9.0) < 1e-12)
  }

  test("weights length must match dimensionality") {
    intercept[IllegalArgumentException](
      CompositeAggregator(Seq(DistAgg("cat", TestGen.Cats)), Array(1.0)))
  }

  // --- F(r) against DuckDB -------------------------------------------------

  private def oracleCheck(seed: Int, specIdx: Int): Unit = {
    val data = TestGen.df(spark, 40, seed)
    val rng = new Random(seed * 97)
    val a = (rng.nextInt(20) + 8) / 64.0; val b = (rng.nextInt(20) + 8) / 64.0
    val qx = rng.nextDouble() * (1 - a); val qy = rng.nextDouble() * (1 - b)
    val region = Box(qx, qy, qx + a, qy + b)

    val spec = TestGen.specs(specIdx)
    val rep = Agg.representation(data, spec, region)

    // Re-derive the same vector in SQL over the raw table.
    def where(sel: Option[Selection]) =
      s"CAST(x AS DOUBLE) > ${region.x0} AND CAST(x AS DOUBLE) < ${region.x1} AND " +
      s"CAST(y AS DOUBLE) > ${region.y0} AND CAST(y AS DOUBLE) < ${region.y1}" +
      sel.map(s => s" AND ${s.col} = '${s.value}'").getOrElse("")
    val exprs = spec.aggs.zipWithIndex.flatMap {
      case (DistAgg(attr, dom, sel), i) =>
        dom.zipWithIndex.map { case (v, j) =>
          s"(SELECT CAST(COUNT(*) AS DOUBLE) FROM t WHERE ${where(sel)} AND $attr = '$v') AS d${i}_$j" }
      case (AvgAgg(attr, sel), i) =>
        Seq(s"(SELECT COALESCE(AVG(CAST($attr AS DOUBLE)), 0) FROM t WHERE ${where(sel)}) AS d${i}_0")
      case (SumAgg(attr, sel), i) =>
        Seq(s"(SELECT COALESCE(SUM(CAST($attr AS DOUBLE)), 0) FROM t WHERE ${where(sel)}) AS d${i}_0")
    }
    val names = spec.aggs.zipWithIndex.flatMap {
      case (ag: repro.core.AggSpec, i) => (0 until ag.dim).map(j => s"d${i}_$j")
    }
    import spark.implicits._
    val sparkDf = Seq(rep.toSeq).toDF("v")
      .selectExpr(names.zipWithIndex.map { case (n, k) => s"CAST(v[$k] AS DOUBLE) AS $n" }: _*)
    Oracle.assertEquivalent(sparkDf, s"SELECT ${exprs.mkString(", ")}", "t" -> data)
  }

  for (seed <- 1 to 4; specIdx <- TestGen.specs.indices)
    test(s"F(r) matches DuckDB (seed $seed, spec $specIdx)")(oracleCheck(seed, specIdx))

  test("representation of an object-free region is the empty vector") {
    val data = TestGen.df(spark, 20, 5)
    val spec = TestGen.specs(3)
    val rep = Agg.representation(data, spec, Box(2.0, 2.0, 2.5, 2.5))
    assert(rep.forall(_ == 0.0))
  }

  test("strict boundaries: object exactly on the region edge is excluded") {
    import spark.implicits._
    val data = Seq((0.5, 0.5, "A", 1.0, 1.0)).toDF("x", "y", "cat", "v", "w")
    val spec = CompositeAggregator.uniform(DistAgg("cat", TestGen.Cats))
    assert(Agg.representation(data, spec, Box(0.5, 0.0, 1.0, 1.0)).sum == 0.0)
    assert(Agg.representation(data, spec, Box(0.0, 0.0, 0.5, 1.0)).sum == 0.0)
    assert(Agg.representation(data, spec, Box(0.25, 0.25, 0.75, 0.75)).sum == 1.0)
  }
}
