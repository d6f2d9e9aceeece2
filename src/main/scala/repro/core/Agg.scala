package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Selection function γ (Def. 1): keeps objects whose `col` equals `value`
  * (string-compared); `None` at the use-site is γ_all.
  */
final case class Selection(col: String, value: String)

/** One aggregator `(f, A, γ)` of a composite aggregator (Def. 2). */
sealed trait AggSpec {
  def attr: String
  def sel: Option[Selection]
  /** Number of feature-vector dimensions this aggregator contributes. */
  def dim: Int
}

/** Distribution aggregator f_D: per-domain-value object counts. */
final case class DistAgg(attr: String, domain: Seq[String], sel: Option[Selection] = None)
    extends AggSpec { def dim: Int = domain.size }

/** Average aggregator f_A (avg over the selected set; avg(∅) := 0). */
final case class AvgAgg(attr: String, sel: Option[Selection] = None)
    extends AggSpec { def dim: Int = 1 }

/** Sum aggregator f_S. */
final case class SumAgg(attr: String, sel: Option[Selection] = None)
    extends AggSpec { def dim: Int = 1 }

/** Composite aggregator F (Def. 2) plus the weight vector w of Def. 4. */
final case class CompositeAggregator(aggs: Seq[AggSpec], weights: Array[Double]) {
  val dim: Int = aggs.map(_.dim).sum
  require(weights.length == dim, s"weights ${weights.length} != dim $dim")

  /** Weighted L1 distance of Def. 4. */
  def distance(u: Array[Double], v: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < dim) { s += math.abs(u(i) - v(i)) * weights(i); i += 1 }
    s
  }

  /** Eq. 1: lower bound on the distance to `target` of any vector `v` with
    * `lo ≤ v ≤ hi` component-wise.
    */
  def lowerBound(lo: Array[Double], hi: Array[Double], target: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < dim) {
      if (target(i) > hi(i)) s += (target(i) - hi(i)) * weights(i)
      else if (target(i) < lo(i)) s += (lo(i) - target(i)) * weights(i)
      i += 1
    }
    s
  }
}

object CompositeAggregator {
  def uniform(aggs: AggSpec*): CompositeAggregator = {
    val d = aggs.map(_.dim).sum
    CompositeAggregator(aggs, Array.fill(d)(1.0))
  }
}

/** DataFrame-side helpers: helper columns, aggregate expressions, and the
  * exact representation F(r) of a region.
  *
  * `prepare` adds, per aggregator `i`:
  *   - f_D: `a{i}_idx` — index of the attribute value in the domain, or -1
  *     when the object is filtered out by γ or the value is out of domain;
  *   - f_A / f_S: `a{i}_val` (double) and `a{i}_sel` (boolean γ outcome,
  *     never null: false when the value or γ's column is null).
  * Both the distributed groupBy path and the collected local path work off
  * these columns, so the two discretizers cannot drift apart; the grid index
  * reads them through the local path too.
  */
object Agg {

  /** γ's outcome, never null: an object whose `col` is null is not selected. */
  private def selCond(sel: Option[Selection]): Column =
    sel.map(s => col(s.col).cast("string") <=> lit(s.value)).getOrElse(lit(true))

  def prepare(df: DataFrame, spec: CompositeAggregator): DataFrame =
    spec.aggs.zipWithIndex.foldLeft(df) { case (d, (a, i)) =>
      a match {
        case DistAgg(attr, domain, sel) =>
          val idx = array_position(
            lit(domain.toArray), col(attr).cast("string")).cast("int") - 1
          d.withColumn(s"a${i}_idx", when(selCond(sel) && idx >= 0, idx).otherwise(-1))
        case num @ (_: AvgAgg | _: SumAgg) =>
          d.withColumn(s"a${i}_val", col(num.attr).cast("double"))
            .withColumn(s"a${i}_sel", selCond(num.sel) && col(num.attr).isNotNull)
      }
    }

  /** Aggregate expressions producing the raw per-group statistics of a
    * [[CellStats]] slot, in its layout order. `full` is the condition
    * marking rows counted as "fully covering"; rows failing it are
    * "partially covering".
    */
  def rawStatExprs(spec: CompositeAggregator, full: Column): Seq[Column] = {
    val part = !full
    spec.aggs.zipWithIndex.flatMap { case (a, i) =>
      a match {
        case DistAgg(_, domain, _) =>
          val idx = col(s"a${i}_idx")
          domain.indices.flatMap { j =>
            Seq(
              coalesce(sum(when(full && idx === j, 1L)), lit(0L)).as(s"a${i}_f$j"),
              coalesce(sum(when(part && idx === j, 1L)), lit(0L)).as(s"a${i}_p$j"),
            )
          }
        case AvgAgg(_, _) =>
          val v = col(s"a${i}_val"); val s = col(s"a${i}_sel")
          Seq(
            coalesce(sum(when(full && s, 1L)), lit(0L)).as(s"a${i}_fcnt"),
            coalesce(sum(when(full && s, v)), lit(0.0)).as(s"a${i}_fsum"),
            coalesce(sum(when(part && s, 1L)), lit(0L)).as(s"a${i}_pcnt"),
            min(when(part && s, v)).as(s"a${i}_pmin"),
            max(when(part && s, v)).as(s"a${i}_pmax"),
          )
        case SumAgg(_, _) =>
          val v = col(s"a${i}_val"); val s = col(s"a${i}_sel")
          Seq(
            coalesce(sum(when(full && s, v)), lit(0.0)).as(s"a${i}_fsum"),
            coalesce(sum(when(part && s && v > 0, v)), lit(0.0)).as(s"a${i}_ppos"),
            coalesce(sum(when(part && s && v < 0, v)), lit(0.0)).as(s"a${i}_pneg"),
          )
      }
    }
  }

  /** Exact aggregate representation F(r) of the objects of `df` strictly
    * inside `region` (Def. 3): by Lemma 1, the representation of the point at
    * the region's bottom-left corner over the objects' `width×height`
    * rectangles. `df` must carry raw `x`/`y` columns.
    */
  def representation(df: DataFrame, spec: CompositeAggregator, region: Box): Array[Double] =
    BruteForce.evalPoint(Rects.local(df, region.width, region.height, spec), spec, region.x0, region.y0)
}
