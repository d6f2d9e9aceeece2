package repro.core

/** Axis-aligned box `[x0,x1] × [y0,y1]`.
  *
  * Throughout the reproduction, *rectangle objects* (the ASP reduction of
  * spatial objects, §4.1 of the paper) are treated as **open** sets: a
  * rectangle covers a point `p` iff `x0 < p.x < x1 ∧ y0 < p.y < y1`
  * (Lemma 1 uses strict inequalities). Grid *cells* are evaluated at their
  * center, so boundary ties are measure-zero and never observed by the
  * algorithms.
  */
final case class Box(x0: Double, y0: Double, x1: Double, y1: Double) {
  require(x1 >= x0 && y1 >= y0, s"degenerate box $this")

  def width: Double  = x1 - x0
  def height: Double = y1 - y0
  def centerX: Double = (x0 + x1) / 2
  def centerY: Double = (y0 + y1) / 2

  /** Open-interval containment of a point (Lemma 1 semantics). */
  def coversOpen(px: Double, py: Double): Boolean =
    x0 < px && px < x1 && y0 < py && py < y1

  /** Interiors intersect (both boxes treated as open sets). */
  def overlapsOpen(o: Box): Boolean =
    x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1

  /** This box contains the whole of `o` (closure containment: covering all of
    * `o`'s interior is enough for `o` to be a "fully covered" cell).
    */
  def containsBox(o: Box): Boolean =
    x0 <= o.x0 && o.x1 <= x1 && y0 <= o.y0 && o.y1 <= y1

  def union(o: Box): Box =
    Box(math.min(x0, o.x0), math.min(y0, o.y0), math.max(x1, o.x1), math.max(y1, o.y1))

  def area: Double = width * height
}

/** A uniform `ncol × nrow` grid laid over a space (Function Discretize §4.3).
  *
  * Cell `(i, j)` spans `[x0 + i·cw, x0 + (i+1)·cw] × [y0 + j·ch, y0 + (j+1)·ch]`
  * with `i ∈ [0, ncol)`, `j ∈ [0, nrow)`; flat index is `j·ncol + i`.
  */
final case class Grid(space: Box, ncol: Int, nrow: Int) {
  require(ncol > 0 && nrow > 0, s"bad grid $ncol x $nrow")

  val cw: Double = space.width / ncol
  val ch: Double = space.height / nrow
  def cells: Int = ncol * nrow

  def cellBox(i: Int, j: Int): Box =
    Box(space.x0 + i * cw, space.y0 + j * ch, space.x0 + (i + 1) * cw, space.y0 + (j + 1) * ch)

  def flat(i: Int, j: Int): Int = j * ncol + i

  /** Column range `[lo, hi]` (inclusive, clipped) of cells whose interior the
    * open x-interval `(xlo, xhi)` intersects; empty range when none.
    */
  def colRange(xlo: Double, xhi: Double): (Int, Int) =
    idxRange(xlo, xhi, space.x0, cw, ncol)

  def rowRange(ylo: Double, yhi: Double): (Int, Int) =
    idxRange(ylo, yhi, space.y0, ch, nrow)

  private def idxRange(lo: Double, hi: Double, origin: Double, step: Double, n: Int): (Int, Int) = {
    if (hi <= origin || lo >= origin + step * n || step <= 0) return (0, -1)
    // Strict interior overlap: cell k spans [origin+k·step, origin+(k+1)·step];
    // (lo,hi) meets its interior iff lo < cellHi ∧ hi > cellLo.
    var a = math.floor((lo - origin) / step).toInt
    if (origin + (a + 1) * step <= lo) a += 1 // lo sits exactly on a boundary
    var b = math.ceil((hi - origin) / step).toInt - 1
    if (origin + b * step >= hi) b -= 1 // hi sits exactly on a boundary
    (math.max(0, a), math.min(n - 1, b))
  }
}
