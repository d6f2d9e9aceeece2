package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core._

/** Shared harnesses producing the rows of every evaluation artifact
  * (DESIGN.md §5). Benches (`bench/`) print and sanity-assert these; jobs
  * (`jobs/`) expose them to spark-submit.
  */
object Experiments {

  // ----- the paper's composite aggregators (§7.1) ---------------------------

  /** F1 = ((f_D, day-of-week, γ_all)); w = (⅕,⅕,⅕,⅕,⅕,½,½). */
  val F1: CompositeAggregator = CompositeAggregator(
    Seq(DistAgg("dow", SynthData.DowDomain)),
    Array(0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5))

  /** F1's query representation (0,0,0,0,0,T6,T7): T6/T7 = the maximum number
    * of Saturday/Sunday objects an a×b region can hold — computed exactly
    * with the OE sweep over the weekend subsets (§7.1 defines them as "the
    * maximum number of tweets on Saturday/Sunday that a region can have").
    */
  def f1Target(data: DataFrame, a: Double, b: Double): Array[Double] = {
    def maxFor(d: Int): Double =
      MaxRSOE.solveMaxRS(data.where(col("dow") === d), a, b).count.toDouble
    Array(0, 0, 0, 0, 0, maxFor(6), maxFor(7))
  }

  /** F2 = ((f_S, visits, γ_all), (f_A, rating, γ_all)); w = (1/v_max, 1/10);
    * target (v_max, 10). v_max = max total visits of any a×b region,
    * computed exactly with the weighted OE sweep over rectangles that carry
    * their own `visits` value (one collect, so weights and rectangles pair up).
    */
  def f2AndTarget(data: DataFrame, a: Double, b: Double): (CompositeAggregator, Array[Double]) = {
    val visits = CompositeAggregator.uniform(SumAgg("visits"))
    val lr = PreparedQuery(data, a, b, visits).local
    val vmax = math.max(1L, MaxRSOE.solveWeighted(lr, lr.numVal(0).map(math.round)).count)
    val spec = CompositeAggregator(
      Seq(SumAgg("visits"), AvgAgg("rating")),
      Array(1.0 / vmax, 1.0 / 10))
    (spec, Array(vmax.toDouble, 10.0))
  }

  /** Query unit q (paper: (W/1000)×(H/1000); ours W/1024 — DESIGN.md §3). */
  def unit(extent: Double = 1.0): Double = extent / 1024

  def timeMs[T](f: => T): (T, Long) = {
    val t0 = System.nanoTime(); val r = f
    (r, (System.nanoTime() - t0) / 1000000)
  }

  // ----- Table 1: ratio of index cells searched & index size ---------------

  final case class Table1Row(granularity: Int, k: Int, ratioSearched: Double,
                             indexMB: Double, runtimeMs: Long, score: Double)

  def table1(spark: SparkSession, n: Long,
             granularities: Seq[Int] = Seq(64, 128, 256),
             ks: Seq[Int] = Seq(1, 4, 7, 10),
             params: SearchParams = SearchParams()): Seq[Table1Row] = {
    val data = SynthData.pois(spark, n).cache()
    data.count()
    val rows = for (g <- granularities) yield {
      val idx = GridIndex.build(data, F1, g, g)
      for (k <- ks) yield {
        val a = k * unit(); val b = k * unit()
        val target = f1Target(data, a, b)
        val (res, ms) = timeMs(GIDS.solve(data, a, b, F1, target, idx, params))
        Table1Row(g, k, res.ratioSearched, idx.sizeBytes / 1e6, ms, res.score)
      }
    }
    data.unpersist()
    rows.flatten
  }

  // ----- Table 2: approximation quality ------------------------------------

  final case class Table2Row(cardinality: Long, delta: Double, quality: Double,
                             dApp: Double, dOpt: Double, runtimeMs: Long)

  def table2(spark: SparkSession, ns: Seq[Long],
             deltas: Seq[Double] = Seq(0.1, 0.2, 0.3, 0.4),
             k: Int = 10, granularity: Int = 128): Seq[Table2Row] = {
    ns.flatMap { n =>
      val data = SynthData.pois(spark, n).cache()
      data.count()
      val a = k * unit(); val b = k * unit()
      val target = f1Target(data, a, b)
      val idx = GridIndex.build(data, F1, granularity, granularity)
      val exact = GIDS.solve(data, a, b, F1, target, idx)
      val out = deltas.map { d =>
        val (res, ms) = timeMs(
          GIDS.solve(data, a, b, F1, target, idx, SearchParams(delta = d)))
        val q = if (exact.score == 0) 1.0 else res.score / exact.score
        Table2Row(n, d, q, res.score, exact.score, ms)
      }
      data.unpersist()
      out
    }
  }

  // ----- Figs 8/10 shape claim: DS-Search vs Base --------------------------

  final case class SpeedupRow(n: Long, k: Int, aggregator: String,
                              baseMs: Long, dsMs: Long, speedup: Double,
                              agreed: Boolean, score: Double)

  /** Untimed JIT warmup: run every timed code path once on a small instance
    * so first-measurement compilation noise (5–40×) doesn't corrupt trends.
    */
  def warmup(spark: SparkSession): Unit = {
    val data = SynthData.pois(spark, 2000, seed = 99).cache()
    data.count()
    val a = 8 * unit(); val target = f1Target(data, a, a)
    SweepBase.solveASRS(data, a, a, F1, target)
    DSSearch.solveASRS(data, a, a, F1, target)
    DSSearch.solveMaxRS(data, a, a)
    MaxRSOE.solveMaxRS(data, a, a)
    data.unpersist()
  }

  def speedup(spark: SparkSession, ns: Seq[Long], k: Int,
              useF2: Boolean, params: SearchParams = SearchParams()): Seq[SpeedupRow] =
    ns.map { n =>
      val data = SynthData.pois(spark, n).cache()
      data.count()
      val a = k * unit(); val b = k * unit()
      val (spec, target) =
        if (useF2) f2AndTarget(data, a, b) else (F1, f1Target(data, a, b))
      val (baseRes, baseMs) = timeMs(SweepBase.solveASRS(data, a, b, spec, target))
      val (dsRes, dsMs) = timeMs(DSSearch.solveASRS(data, a, b, spec, target, params))
      data.unpersist()
      SpeedupRow(n, k, if (useF2) "F2" else "F1", baseMs, dsMs,
                 baseMs.toDouble / math.max(1, dsMs),
                 math.abs(baseRes.score - dsRes.score) < 1e-6, dsRes.score)
    }

  // ----- Fig 13 shape claim: DS-MaxRS vs OE --------------------------------

  final case class MaxRSRow(n: Long, k: Int, oeMs: Long, dsMs: Long,
                            count: Long, agreed: Boolean)

  def maxrs(spark: SparkSession, ns: Seq[Long], k: Int,
            params: SearchParams = SearchParams()): Seq[MaxRSRow] =
    ns.map { n =>
      val data = SynthData.pois(spark, n).cache()
      data.count()
      val a = k * unit(); val b = k * unit()
      val (oeRes, oeMs) = timeMs(MaxRSOE.solveMaxRS(data, a, b))
      val (dsRes, dsMs) = timeMs(DSSearch.solveMaxRS(data, a, b, params))
      data.unpersist()
      MaxRSRow(n, k, oeMs, dsMs, oeRes.count, oeRes.count.toDouble == dsRes.score)
    }

  // ----- rendering ----------------------------------------------------------

  def render(title: String, header: Seq[String], rows: Seq[Seq[Any]]): String = {
    val all = header +: rows.map(_.map {
      case d: Double => f"$d%.4f"
      case x => x.toString
    })
    val widths = all.transpose.map(_.map(_.length).max)
    def line(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (s"== $title ==" +: line(all.head) +: all.tail.map(line)).mkString("\n")
  }
}
