package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import SplitHeuristic.Part

/** Function Split: coverage, bound propagation, and the progress safeguard. */
class SplitSpec extends AnyFunSuite {

  private def cell(x: Double, y: Double, s: Double, bound: Double) =
    Part(Box(x, y, x + s, y + s), bound)

  /** A parent so much larger than the unit square that no group is bisected. */
  private val wide = Box(-1, -1, 2, 2)

  /** Every point of `c` lies in some part: each piece of `c` between
    * consecutive part edges has its centre inside a part.
    */
  private def covered(c: Box, parts: Seq[Part]): Boolean = {
    def cuts(lo: Double, hi: Double, edges: Seq[Double]) =
      (lo +: edges.filter(e => lo < e && e < hi) :+ hi).distinct.sorted
    val xs = cuts(c.x0, c.x1, parts.flatMap(p => Seq(p.box.x0, p.box.x1)))
    val ys = cuts(c.y0, c.y1, parts.flatMap(p => Seq(p.box.y0, p.box.y1)))
    xs.sliding(2).forall { xp =>
      ys.sliding(2).forall { yp =>
        val (px, py) = ((xp(0) + xp(1)) / 2, (yp(0) + yp(1)) / 2)
        parts.exists(_.box.coversOpen(px, py))
      }
    }
  }

  test("empty input yields no children") {
    assert(SplitHeuristic.split(IndexedSeq.empty, wide).isEmpty)
  }

  test("single cell yields itself") {
    val c = cell(0, 0, 0.1, 2.0)
    assert(SplitHeuristic.split(IndexedSeq(c), Box(0, 0, 1, 1)) == Seq(c))
  }

  for (seed <- 1 to 15) test(s"children cover all dirty cells, bounds are minima (seed $seed)") {
    val rng = new Random(seed)
    val cells = IndexedSeq.fill(rng.nextInt(299) + 2)(
      cell(rng.nextDouble(), rng.nextDouble(), 0.05, rng.nextDouble() * 10))
    val children = SplitHeuristic.split(cells, wide)
    assert(children.size == 2)
    // every cell is inside some child MBR
    cells.foreach { c =>
      assert(children.exists(_.box.containsBox(c.box)), s"cell ${c.box} uncovered")
    }
    // each child's bound is the best bound of the cells it encloses entirely
    val globalBest = cells.map(_.bound).min
    assert(children.map(_.bound).min == globalBest)
    children.foreach(ch => assert(cells.exists(c => ch.box.containsBox(c.box))))

    // With the cells' own MBR as the parent, the groups are bisected: every
    // part is at most 0.45× the parent, and together they still cover every
    // cell with the best bound.
    val parent = cells.map(_.box).reduce(_ union _)
    val parts = SplitHeuristic.split(cells, parent)
    assert(parts.forall(_.box.area <= 0.45 * parent.area), parts.map(_.box.area))
    cells.foreach(c => assert(covered(c.box, parts), s"cell ${c.box} uncovered"))
    assert(parts.map(_.bound).min == globalBest)
  }

  test("two far-apart clusters are separated") {
    val g1 = IndexedSeq(cell(0, 0, 0.05, 1), cell(0.05, 0.02, 0.05, 2))
    val g2 = IndexedSeq(cell(0.9, 0.9, 0.05, 3), cell(0.85, 0.92, 0.05, 4))
    val children = SplitHeuristic.split(g1 ++ g2, Box(0, 0, 1, 1))
    assert(children.size == 2)
    val areas = children.map(_.box.area).sum
    assert(areas < 0.2, s"MBRs should stay tight, total area $areas")
  }

  test("split bisects a part spanning the whole parent") {
    val parent = Box(0, 0, 1, 0.5)
    val out = SplitHeuristic.split(IndexedSeq(Part(parent, 1.0)), parent)
    assert(out.size >= 2)
    // geometric decay guarantee: every piece is at most 0.45x the parent area
    assert(out.forall(_.box.area <= 0.45 * parent.area + 1e-12))
    // pieces partition the part exactly
    assert(math.abs(out.map(_.box.area).sum - parent.area) <= 1e-12)
    assert(out.forall(_.bound == 1.0))
  }

  test("split leaves a shrinking part alone") {
    val parent = Box(0, 0, 1, 1)
    val ok = Part(Box(0, 0, 0.4, 1), 1.0)
    assert(SplitHeuristic.split(IndexedSeq(ok), parent) == Seq(ok))
  }
}
