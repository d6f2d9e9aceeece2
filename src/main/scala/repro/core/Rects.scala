package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

/** The ASRS → ASP reduction (§4.1): each spatial object `o` becomes an `a×b`
  * rectangle whose **top-right** corner sits at `o`, so a candidate point `p`
  * (= bottom-left corner of a candidate region) is covered by the rectangle
  * iff `o` lies strictly inside the region anchored at `p` (Lemma 1).
  */
object Rects {

  /** Build the rectangle DataFrame with aggregator helper columns.
    * Input `objects` must have `x` and `y` plus the attribute columns the
    * composite aggregator references.
    */
  def build(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator): DataFrame = {
    require(a > 0 && b > 0, s"query size $a x $b")
    Agg.prepare(objects, spec)
      .withColumn("xlo", col("x") - a)
      .withColumn("xhi", col("x"))
      .withColumn("ylo", col("y") - b)
      .withColumn("yhi", col("y"))
  }

  /** One query's driver snapshot, shared by every solver: its `a×b`
    * rectangles in one collect, the query's only Spark job.
    */
  def local(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator): LocalRects =
    LocalRects.collect(build(objects, a, b, spec), spec)

  /** MaxRS's aggregator: one sum over the constant-1 `__one` column, so a
    * region's representation is its object count.
    */
  val CountSpec: CompositeAggregator = CompositeAggregator.uniform(SumAgg("__one"))

  /** A MaxRS query's snapshot (§7.5): [[CountSpec]] over `objects` with
    * `__one` added.
    */
  def maxRS(objects: DataFrame, a: Double, b: Double): LocalRects =
    local(objects.withColumn("__one", lit(1.0)), a, b, CountSpec)
}

/** Struct-of-arrays snapshot of a query's rectangles on the driver, the one
  * every solver and the local discretizer read. The attribute columns mirror
  * the helper columns of [[Agg.prepare]] and are indexed by aggregator
  * position: an f_D aggregator has its domain index in `distIdx` (−1 = not
  * selected), an f_A/f_S one a value in `numVal` and a selected flag in
  * `numSel`; the other two entries of a position are `null`.
  */
final class LocalRects(
    val n: Int,
    val xlo: Array[Double], val ylo: Array[Double],
    val xhi: Array[Double], val yhi: Array[Double],
    val distIdx: Array[Array[Int]],
    val numVal: Array[Array[Double]],
    val numSel: Array[Array[Boolean]],
) {
  def box(i: Int): Box = Box(xlo(i), ylo(i), xhi(i), yhi(i))

  /** The rectangles' edge arrangement, sorted once per snapshot. */
  lazy val edges: Edges = new Edges(this)

  /** Those of the rectangles `among` whose interior intersects `space`. */
  def overlapping(space: Box, among: Array[Int]): Array[Int] =
    among.filter(i => xlo(i) < space.x1 && space.x0 < xhi(i) &&
                      ylo(i) < space.y1 && space.y0 < yhi(i))
}

object LocalRects {

  /** Collect a (filtered) prepared rectangle DataFrame to the driver. */
  def collect(rects: DataFrame, spec: CompositeAggregator): LocalRects =
    fromRows(rects.select(selectCols(spec): _*).collect(), spec)

  def selectCols(spec: CompositeAggregator) = {
    val base = Seq(col("xlo"), col("ylo"), col("xhi"), col("yhi"))
    base ++ spec.aggs.zipWithIndex.flatMap {
      case (_: DistAgg, i) => Seq(col(s"a${i}_idx"))
      case (_, i)          => Seq(col(s"a${i}_val"), col(s"a${i}_sel"))
    }
  }

  def fromRows(rows: Array[Row], spec: CompositeAggregator): LocalRects = {
    val n = rows.length
    val dist = spec.aggs.map(_.isInstanceOf[DistAgg]).toArray
    val xlo = new Array[Double](n); val ylo = new Array[Double](n)
    val xhi = new Array[Double](n); val yhi = new Array[Double](n)
    val dIdx = dist.map(d => if (d) new Array[Int](n) else null)
    val nVal = dist.map(d => if (d) null else new Array[Double](n))
    val nSel = dist.map(d => if (d) null else new Array[Boolean](n))
    var r = 0
    while (r < n) {
      val row = rows(r)
      xlo(r) = row.getDouble(0); ylo(r) = row.getDouble(1)
      xhi(r) = row.getDouble(2); yhi(r) = row.getDouble(3)
      var c = 4
      var i = 0
      while (i < dist.length) {
        if (dist(i)) { dIdx(i)(r) = row.getInt(c); c += 1 }
        else {
          val v = row.get(c)
          nVal(i)(r) = if (v == null) 0.0 else v.asInstanceOf[Double]
          nSel(i)(r) = v != null && row.getBoolean(c + 1)
          c += 2
        }
        i += 1
      }
      r += 1
    }
    new LocalRects(n, xlo, ylo, xhi, yhi, dIdx, nVal, nSel)
  }
}
