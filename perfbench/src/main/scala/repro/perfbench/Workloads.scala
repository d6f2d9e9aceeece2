package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core._

/** The solvers a workload times; `key` prefixes their metric names. */
sealed abstract class Solver(val key: String)
object Solver {
  case object DS    extends Solver("ds_search") // DSSearch.solveASRS, default SearchParams
  case object GIDS  extends Solver("gids")      // GIDS.solve, 128² index, δ = 0
  case object App   extends Solver("app_gids")  // GIDS.solve, δ = AppDelta
  case object Base  extends Solver("base")      // SweepBase.solveASRS
  case object MaxDS extends Solver("maxrs_ds")  // DSSearch.solveMaxRS
  case object OE    extends Solver("oe")        // MaxRSOE.solveMaxRS
  val all: Seq[Solver] = Seq(DS, GIDS, App, Base, MaxDS, OE)
  val AppDelta = 0.2
}

/** One query on one dataset: an `a×a` region with `a = k·q`. ASRS queries
  * carry a spec, a target and the grid index built for that spec; MaxRS
  * queries carry none of them.
  */
final case class Query(id: String, k: Int, data: DataFrame, spec: CompositeAggregator,
                       target: Array[Double], index: GridIndex, solvers: Seq[Solver]) {
  def a: Double = k * Workloads.Q
  def isMaxRS: Boolean = target == null
}

/** Everything set-up produces: the datasets' fingerprints, the queries, the
  * (data, spec) pairs a grid index was built for, each ASRS query's computed
  * target by query id, and each dataset's set-up time in seconds.
  */
final case class Prepared(fingerprints: Seq[Seq[String]], queries: Seq[Query],
                          indexed: Seq[(DataFrame, CompositeAggregator)],
                          inputs: Map[String, Seq[Double]], setupSecs: Seq[Double])

/** A workload: `datasets` independent sets of `n` synthetic POIs. Dataset
  * `i` is asked one ASRS query (the workload's spec) and one MaxRS query,
  * both of size `sizes(i % sizes.size)·q`. The cost of a GI-DS query varies
  * severalfold with the data, so a run spreads its time over many datasets
  * rather than over repeats of a few queries.
  */
final case class Workload(name: String, n: Long, datasets: Int, sizes: Seq[Int], spec: String)

object Workloads {

  /** Query unit q = 1/1024 of the unit square's side. */
  val Q: Double = 1.0 / 1024
  val IndexGranularity = 128

  /** F1 = f_D over day-of-week, w = (⅕ ×5, ½, ½), as in the paper's §7.1. */
  val F1: CompositeAggregator = CompositeAggregator(
    Seq(DistAgg("dow", SynthData.DowDomain)), Array(0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5))

  val all: Seq[Workload] = Seq(
    Workload("lattice-f1-1k-x12", 1000, 12, Seq(16, 32, 64), "F1"),
    Workload("lattice-f2-1k-x12", 1000, 12, Seq(4, 6), "F2"))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; one of ${all.map(_.name).mkString(", ")}"))

  /** F1's target (0,0,0,0,0,T6,T7): T6/T7 are the most Saturday/Sunday
    * objects an a×a region holds, from the OE sweep over each weekend subset.
    */
  def f1Target(data: DataFrame, a: Double): Array[Double] = {
    def most(dow: Int) = MaxRSOE.solveMaxRS(data.where(col("dow") === dow), a, a).count.toDouble
    Array(0, 0, 0, 0, 0, most(6), most(7))
  }

  /** F2 = (f_S visits, f_A rating), w = (1/v_max, 1/10), target (v_max, 10).
    * v_max, the most visits an a×a region holds, comes from one collect of
    * rectangles carrying their own `visits` value into the weighted OE sweep.
    */
  def f2(data: DataFrame, a: Double): (CompositeAggregator, Array[Double]) = {
    val visits = CompositeAggregator.uniform(SumAgg("visits"))
    val lr = LocalRects.collect(Rects.build(data, a, a, visits), visits)
    val vmax = math.max(1L, MaxRSOE.solveWeighted(lr, lr.numVal(0).map(math.round)).count)
    (CompositeAggregator(Seq(SumAgg("visits"), AvgAgg("rating")), Array(1.0 / vmax, 1.0 / 10)),
     Array(vmax.toDouble, 10.0))
  }

  /** Seed of dataset `i` of a run with `seed`: distinct for every (seed, i). */
  def dataSeed(w: Workload, seed: Long, i: Int): Long = seed * w.datasets + i

  /** count, Σx, Σy, Σvisits — sums in exact decimal arithmetic so the
    * fingerprint does not depend on summation order.
    */
  def fingerprint(data: DataFrame): Seq[String] = {
    val r = data.agg(count(lit(1)), sum(col("x").cast("decimal(38,12)")),
                     sum(col("y").cast("decimal(38,12)")), sum(col("visits"))).collect()(0)
    (0 until 4).map(i => r.get(i).toString)
  }

  def buildIndex(data: DataFrame, spec: CompositeAggregator): GridIndex =
    GridIndex.build(data, spec, IndexGranularity, IndexGranularity)

  /** Set-up of the first `datasets` datasets of a run with `seed`. Each
    * dataset's set-up is timed on its own: `SynthData.pois` on the 2⁻¹⁰
    * lattice, cached and materialized by the fingerprint job (checked against
    * `fingerprints.tsv`), the query inputs, and the grid index for the spec.
    */
  def prepare(spark: SparkSession, w: Workload, seed: Long, datasets: Int): Prepared = {
    import Solver._
    val per = (0 until datasets).map { i =>
      val t0 = System.nanoTime()
      val data = SynthData.pois(spark, w.n, dataSeed(w, seed, i)).cache()
      val fp = fingerprint(data)
      Fingerprints.check(w.n, dataSeed(w, seed, i), fp)
      val k = w.sizes(i % w.sizes.size)
      val (spec, target) = if (w.spec == "F1") (F1, f1Target(data, k * Q)) else f2(data, k * Q)
      val index = buildIndex(data, spec)
      val secs = (System.nanoTime() - t0) / 1e9
      val asrs = Query(s"d$i-${w.spec.toLowerCase}-${k}q", k, data, spec, target, index, Seq(DS, GIDS, App, Base))
      val maxrs = Query(s"d$i-maxrs-${k}q", k, data, null, null, null, Seq(MaxDS, OE))
      (fp, Seq(asrs, maxrs), data -> spec, asrs.id -> target.toSeq, secs)
    }
    Prepared(per.map(_._1), per.flatMap(_._2), per.map(_._3), per.map(_._4).toMap, per.map(_._5))
  }
}
