package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Spatial generators for the ASRS reproduction (DESIGN.md §3).
  *
  * Stand-in for the paper's Tweet (3.2e8 geo-tagged tweets) and POISyn
  * datasets: deterministic POIs on the unit square, drawn from Gaussian
  * clusters plus a uniform background, with coordinates snapped to a binary
  * lattice. The lattice pitch plays the role of GPS accuracy (Def. 7):
  * 2^-k is exactly representable in a double, so rectangle edges
  * (x and x - a for lattice-multiple query sizes a) stay on the lattice and
  * ΔX = ΔY = `resolution` exactly, as with the paper's decimal GPS fixes.
  */
object SynthData {

  /** Attribute domains mirroring the paper's datasets: 7 POI categories
    * (Foursquare-style), day-of-week 1..7 (Tweet), rating 0..10 and
    * visits 1..500 (POISyn).
    */
  val PoiCategories: Seq[String] =
    Seq("Food", "Shop", "Nightlife", "Arts", "Outdoors", "Transport", "Residence")
  val DowDomain: Seq[String] = (1 to 7).map(_.toString)

  /** Geo-tagged POIs: `id, x, y, category, dow, rating, visits`.
    *
    * `clusterFrac` of the points fall in `clusters` Gaussian blobs whose
    * category/day-of-week/rating mixes depend on the cluster (every third
    * cluster is weekend-heavy), so "similar region" structure is non-trivial;
    * the rest are uniform background. Deterministic in (n, seed).
    */
  def pois(spark: SparkSession, n: Long, seed: Long = 7,
           resolution: Double = 1.0 / 1024, clusters: Int = 12,
           clusterFrac: Double = 0.7): DataFrame = {
    import spark.implicits._
    val rng = new scala.util.Random(seed)
    val cx = Array.fill(clusters)(0.1 + 0.8 * rng.nextDouble())
    val cy = Array.fill(clusters)(0.1 + 0.8 * rng.nextDouble())
    val snap = (c: org.apache.spark.sql.Column) =>
      round(least(lit(1.0), greatest(lit(0.0), c)) / resolution) * resolution
    val cid = (rand(seed + 1) * clusters).cast(IntegerType)
    val bg  = rand(seed + 2) >= clusterFrac
    val weekendCluster = cid % 3 === 0

    spark.range(n).select(
      $"id",
      cid as "cid",
      bg  as "bg",
      when(bg, rand(seed + 3))
        .otherwise(element_at(array(cx.map(lit): _*), cid + 1) + randn(seed + 4) * 0.04) as "xr",
      when(bg, rand(seed + 5))
        .otherwise(element_at(array(cy.map(lit): _*), cid + 1) + randn(seed + 6) * 0.04) as "yr",
    ).select(
      $"id",
      snap($"xr") as "x",
      snap($"yr") as "y",
      element_at(
        array(PoiCategories.map(lit): _*),
        when($"bg", (rand(seed + 7) * 7).cast(IntegerType))
          .otherwise(($"cid" + (rand(seed + 8) * 3).cast(IntegerType)) % 7) + 1) as "category",
      when(!$"bg" && weekendCluster && rand(seed + 9) < 0.6,
           (rand(seed + 10) * 2 + 6).cast(IntegerType))
        .otherwise((rand(seed + 11) * 7 + 1).cast(IntegerType)) as "dow",
      round(least(lit(10.0), greatest(lit(0.0),
        lit(5.0) + ($"cid" % 5 - 2).cast(DoubleType) + randn(seed + 12) * 1.5)), 1) as "rating",
      (rand(seed + 13) * 500 + 1).cast(LongType) as "visits",
    )
  }

  /** Uniform (cluster-free) POIs — the easy case for pruning studies. */
  def poisUniform(spark: SparkSession, n: Long, seed: Long = 7,
                  resolution: Double = 1.0 / 1024): DataFrame =
    pois(spark, n, seed, resolution, clusters = 1, clusterFrac = 0.0)
}
