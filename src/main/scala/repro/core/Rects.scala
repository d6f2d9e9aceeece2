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

  /** The ASP search space: every point covered by at least one rectangle lies
    * in the union bounding box of the rectangles; everything outside has the
    * empty representation.
    */
  def searchSpace(local: LocalRects): Box = {
    if (local.n == 0) return Box(0, 0, 1, 1)
    var x0 = Double.MaxValue; var y0 = Double.MaxValue
    var x1 = Double.MinValue; var y1 = Double.MinValue
    var i = 0
    while (i < local.n) {
      x0 = math.min(x0, local.xlo(i)); x1 = math.max(x1, local.xhi(i))
      y0 = math.min(y0, local.ylo(i)); y1 = math.max(y1, local.yhi(i))
      i += 1
    }
    Box(x0, y0, x1, y1)
  }
}

/** One query's set-up, shared by every solver: the driver-side snapshot of
  * its rectangles (one collect, the query's only Spark job), the ASP search
  * space and ΔX/ΔY, both taken from the snapshot.
  */
final class PreparedQuery(val local: LocalRects) {
  def n: Int = local.n
  lazy val space: Box = Rects.searchSpace(local)
  lazy val accuracy: (Double, Double) = Accuracy.ofLocal(local)
}

object PreparedQuery {
  def apply(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator): PreparedQuery =
    new PreparedQuery(LocalRects.collect(Rects.build(objects, a, b, spec), spec))
}

/** Struct-of-arrays snapshot of rectangles for the driver-local discretizer.
  * Per aggregator: f_D keeps the domain index (−1 = not selected), f_A/f_S a
  * value + selected flag — mirroring the helper columns of [[Agg.prepare]].
  */
final class LocalRects(
    val n: Int,
    val xlo: Array[Double], val ylo: Array[Double],
    val xhi: Array[Double], val yhi: Array[Double],
    val distIdx: Array[Array[Int]],     // one array per f_D aggregator position
    val numVal: Array[Array[Double]],   // one array per f_A/f_S aggregator position
    val numSel: Array[Array[Boolean]],
) {
  def box(i: Int): Box = Box(xlo(i), ylo(i), xhi(i), yhi(i))

  /** Indices of rectangles whose interior intersects `space`. */
  def overlapping(space: Box): Array[Int] = {
    val out = Array.newBuilder[Int]
    var i = 0
    while (i < n) {
      if (xlo(i) < space.x1 && space.x0 < xhi(i) && ylo(i) < space.y1 && space.y0 < yhi(i))
        out += i
      i += 1
    }
    out.result()
  }
}

object LocalRects {

  /** Map aggregator position → slot in the dist/num arrays. */
  def slots(spec: CompositeAggregator): (Array[Int], Array[Int]) = {
    val distSlot = Array.fill(spec.aggs.size)(-1)
    val numSlot  = Array.fill(spec.aggs.size)(-1)
    var d = 0; var m = 0
    spec.aggs.zipWithIndex.foreach {
      case (_: DistAgg, i) => distSlot(i) = d; d += 1
      case (_, i)          => numSlot(i) = m; m += 1
    }
    (distSlot, numSlot)
  }

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
    val (distSlot, numSlot) = slots(spec)
    val nDist = distSlot.count(_ >= 0); val nNum = numSlot.count(_ >= 0)
    val xlo = new Array[Double](n); val ylo = new Array[Double](n)
    val xhi = new Array[Double](n); val yhi = new Array[Double](n)
    val dIdx = Array.fill(nDist)(new Array[Int](n))
    val nVal = Array.fill(nNum)(new Array[Double](n))
    val nSel = Array.fill(nNum)(new Array[Boolean](n))
    var r = 0
    while (r < n) {
      val row = rows(r)
      xlo(r) = row.getDouble(0); ylo(r) = row.getDouble(1)
      xhi(r) = row.getDouble(2); yhi(r) = row.getDouble(3)
      var c = 4
      spec.aggs.zipWithIndex.foreach {
        case (_: DistAgg, i) =>
          dIdx(distSlot(i))(r) = row.getInt(c); c += 1
        case (_, i) =>
          val v = row.get(c)
          nVal(numSlot(i))(r) = if (v == null) 0.0 else v.asInstanceOf[Double]
          nSel(numSlot(i))(r) = v != null && row.getBoolean(c + 1)
          c += 2
      }
      r += 1
    }
    new LocalRects(n, xlo, ylo, xhi, yhi, dIdx, nVal, nSel)
  }
}
