package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** GPS horizontal/vertical accuracy (Def. 7): the minimum gap between two
  * distinct x- (resp. y-) coordinates of rectangle edges. Bounded below by
  * the positioning resolution, so the paper treats it as a constant; the
  * drop condition (Def. 8) compares cell sizes against it.
  */
object Accuracy {

  /** Distributed computation over the rectangle DataFrame: union the two edge
    * coordinate columns, `distinct`, and take the minimum adjacent-difference
    * under a window `lag` — the "window over geo-tagged partitions" path.
    * No solver calls it: each takes ΔX/ΔY from its collected rectangles
    * ([[ofLocal]]).
    */
  def of(rects: DataFrame): (Double, Double) = (minGap(rects, "xlo", "xhi"), minGap(rects, "ylo", "yhi"))

  private def minGap(rects: DataFrame, c1: String, c2: String): Double = {
    val vals = rects.select(col(c1).as("v")).union(rects.select(col(c2).as("v"))).distinct()
    val w = Window.orderBy("v")
    val row = vals
      .select((col("v") - lag("v", 1).over(w)).as("d"))
      .where(col("d").isNotNull)
      .agg(min("d").as("m"))
      .collect()(0)
    if (row.isNullAt(0)) Double.PositiveInfinity else row.getDouble(0)
  }

  /** Driver-local twin for collected rectangles: their [[Edges]]' ΔX/ΔY. */
  def ofLocal(lr: LocalRects): (Double, Double) = lr.edges.accuracy
}
