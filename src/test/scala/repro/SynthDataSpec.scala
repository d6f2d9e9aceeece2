package repro

import org.apache.spark.sql.functions._

/** Spatial generators: determinism, lattice snapping, attribute domains,
  * cluster structure (DESIGN.md §3 substitution for Tweet/POISyn).
  */
class SynthDataSpec extends SparkSpec {

  test("pois is deterministic in (n, seed)") {
    val a = SynthData.pois(spark, 500, seed = 3).collect().map(_.toString).sorted
    val b = SynthData.pois(spark, 500, seed = 3).collect().map(_.toString).sorted
    assert(a.sameElements(b))
    val c = SynthData.pois(spark, 500, seed = 4).collect().map(_.toString).sorted
    assert(!a.sameElements(c))
  }

  test("coordinates are snapped to the binary lattice inside the unit square") {
    val res = 1.0 / 1024
    val rows = SynthData.pois(spark, 2000, seed = 1, resolution = res)
      .select("x", "y").collect()
    rows.foreach { r =>
      val x = r.getDouble(0); val y = r.getDouble(1)
      assert(x >= 0 && x <= 1 && y >= 0 && y <= 1)
      assert(x / res == math.rint(x / res), s"x=$x off-lattice")
      assert(y / res == math.rint(y / res), s"y=$y off-lattice")
    }
  }

  test("attribute domains match the declared ones") {
    val df = SynthData.pois(spark, 3000, seed = 2).cache()
    val cats = df.select("category").distinct().collect().map(_.getString(0)).toSet
    assert(cats.subsetOf(SynthData.PoiCategories.toSet))
    val dows = df.select("dow").distinct().collect().map(_.getInt(0)).toSet
    assert(dows.subsetOf((1 to 7).toSet))
    val Row = df.agg(min("rating"), max("rating"), min("visits"), max("visits")).collect()(0)
    assert(Row.getDouble(0) >= 0.0 && Row.getDouble(1) <= 10.0)
    assert(Row.getLong(2) >= 1L && Row.getLong(3) <= 501L)
    assert(df.count() == 3000)
  }

  test("clusters produce spatial skew; uniform does not") {
    val clustered = SynthData.pois(spark, 5000, seed = 5)
    val uniform = SynthData.pois(spark, 5000, seed = 5, clusters = 1, clusterFrac = 0.0)
    def maxCellCount(df: org.apache.spark.sql.DataFrame): Long =
      df.select((floor(col("x") * 8) + floor(col("y") * 8) * 8).as("c"))
        .groupBy("c").count().agg(max("count")).collect()(0).getLong(0)
    val mc = maxCellCount(clustered); val mu = maxCellCount(uniform)
    assert(mc > 2 * mu, s"clustered max cell $mc should dwarf uniform $mu")
  }

  test("weekend-heavy clusters shift the day-of-week mix") {
    val df = SynthData.pois(spark, 20000, seed = 6)
    val weekend = df.where(col("dow") >= 6).count().toDouble / 20000
    // uniform would give 2/7 ≈ 0.286; weekend-heavy clusters push it higher
    assert(weekend > 0.30, s"weekend share $weekend")
  }
}
