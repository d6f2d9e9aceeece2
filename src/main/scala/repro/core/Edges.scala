package repro.core

/** The edge arrangement of a query's rectangles (Lemma 3), built once per
  * [[LocalRects]] snapshot: the sorted distinct x- and y-edge coordinates and
  * what the solvers derive from them, the ASP search space (§4.1), ΔX/ΔY
  * (Def. 7), the empty region's anchor and the x-slab sweep of Base and
  * OE [11, 21]. Everything is lazy: Base, for one, never sorts `ys`.
  * The rectangles are translates of one a×b box ([[Rects.build]]): `xhi = x`
  * and `xlo = fl(x − a)`, which does not decrease as `x` grows, so one sort
  * by `xhi` also orders `xlo`. A snapshot that breaks this fails its sweep.
  */
final class Edges(lr: LocalRects) {

  lazy val xs: Array[Double] = Edges.distinctSorted(lr.xlo, lr.xhi)
  lazy val ys: Array[Double] = Edges.distinctSorted(lr.ylo, lr.yhi)

  /** The ASP search space: the rectangles' bounding box. Every point outside
    * it has the empty representation.
    */
  lazy val space: Box = {
    require(lr.n > 0, "the query has no objects, so it has no search space")
    Box(xs.head, ys.head, xs.last, ys.last)
  }

  /** GPS accuracies ΔX/ΔY (Def. 7): the least gap between two distinct edge
    * coordinates per axis, ∞ when an axis has fewer than two.
    */
  lazy val accuracy: (Double, Double) = (Edges.minGap(xs), Edges.minGap(ys))

  /** Corner of the empty region: right of and above every rectangle, (1, 1)
    * when there is none. Read from the upper edges, so it sorts nothing.
    */
  lazy val outsideX: Double = (if (lr.n == 0) 0.0 else lr.xhi.max) + 1.0
  lazy val outsideY: Double = (if (lr.n == 0) 0.0 else lr.yhi.max) + 1.0

  /** Position of the edge coordinate `y` in `ys`. */
  def yIndex(y: Double): Int = java.util.Arrays.binarySearch(ys, y)

  private lazy val byX = {
    val order = Array.range(0, lr.n).sortBy(lr.xhi)
    for (p <- 1 until lr.n) require(lr.xlo(order(p - 1)) <= lr.xlo(order(p)),
      s"rectangle ${order(p)} ends right of rectangle ${order(p - 1)} but starts left of it: " +
      "the rectangles are not translates of one a×b box")
    order
  }

  /** The x-slab sweep: for each slab `k`, between `xs(k)` and `xs(k + 1)`,
    * `close` every rectangle with `xhi ≤ xs(k)` not closed yet, then `open`
    * every one with `xlo ≤ xs(k)` not opened yet, then call `slab(k)`. The
    * open rectangles are then those with `xlo ≤ xs(k) < xhi`, the ones that
    * cover the slab's interior. Both walk one order by `xhi`, which orders
    * `xlo` too since every rectangle is an a×b translate.
    */
  def sweepX(close: Int => Unit, open: Int => Unit)(slab: Int => Unit): Unit = {
    var pLo = 0; var pHi = 0
    var k = 0
    while (k < xs.length - 1) {
      val x = xs(k)
      while (pHi < lr.n && lr.xhi(byX(pHi)) <= x) { close(byX(pHi)); pHi += 1 }
      while (pLo < lr.n && lr.xlo(byX(pLo)) <= x) { open(byX(pLo)); pLo += 1 }
      slab(k)
      k += 1
    }
  }
}

object Edges {
  private def distinctSorted(lo: Array[Double], hi: Array[Double]): Array[Double] =
    (lo ++ hi).distinct.sorted

  private def minGap(vs: Array[Double]): Double =
    if (vs.length < 2) Double.PositiveInfinity
    else (1 until vs.length).map(k => vs(k) - vs(k - 1)).min
}
