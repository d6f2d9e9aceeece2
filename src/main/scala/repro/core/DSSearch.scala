package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable

/** The one search setting: `delta` is the (1+δ) approximation slack (§6,
  * 0 = exact), which app-GIDS sets. The grid side and the runaway cap are
  * the constants [[DSSearch.GridSide]] and [[DSSearch.MaxSpaces]].
  */
final case class SearchParams(delta: Double = 0.0) {

  /** Always `Long.MaxValue`: kept only for perfbench's traced run, until the
    * next change to the benchmark drops its read.
    */
  def localThreshold: Long = Long.MaxValue
}

final class SearchStats {
  var localDiscretizations = 0
  var spacesProcessed = 0
  var cellsEvaluated = 0L
  var truncated = false // MaxSpaces safeguard fired (never in a healthy run)

  /** Always 0: kept only for perfbench's traced run, until the next change to
    * the benchmark drops its read.
    */
  def sparkDiscretizations: Int = 0

  override def toString =
    s"spaces=$spacesProcessed local=$localDiscretizations cells=$cellsEvaluated"
}

/** Algorithm 1, DS-Search, for one query: best-first loop over spaces kept
  * in a heap, discretize each popped space on the driver over the query's
  * collected rectangles `lr` (DESIGN.md §2), harvest clean cells, prune
  * dirty cells by bound, split survivors (Function Split) unless the drop
  * condition (Def. 8) holds.
  *
  * The object owns the query's incumbent. It starts as the empty region,
  * anchored strictly outside every rectangle (`lr.edges.outsideX/Y`), and
  * only harvested clean-cell centres improve it, so every answer lies in an
  * open cell of the edge arrangement (Lemmas 3 and 7). GI-DS [[run]]s it
  * over many index cells so that pruning compounds (Algorithm 2).
  */
final class DSSearch(lr: LocalRects, objective: MinDistance, delta: Double) {
  import DSSearch.{Entry, entryOrd}

  private val spec = objective.spec
  var bestScore: Double = objective.emptyScore
  var bestX: Double = lr.edges.outsideX
  var bestY: Double = lr.edges.outsideY
  val stats = new SearchStats

  // Reused by every harvest: a cell's exact vector or its bounding vectors.
  private val vec = new Array[Double](spec.dim)
  private val lo = new Array[Double](spec.dim)
  private val hi = new Array[Double](spec.dim)

  /** Bounds must be below this to survive: d_opt/(1+δ) (§6). */
  def threshold: Double = bestScore / (1.0 + delta)

  private def offer(score: Double, x: Double, y: Double): Unit =
    if (score < bestScore) { bestScore = score; bestX = x; bestY = y }

  /** Search `space`, updating the incumbent: `idxs` of `lr` include
    * every rectangle overlapping it, and no point in it scores below
    * `bound`. DS-Search passes the whole space; GI-DS one index cell or
    * boundary strip at a time.
    */
  def run(space: Box, idxs: Array[Int], bound: Double): Unit = {
    val (dX, dY) = lr.edges.accuracy
    val heap = mutable.PriorityQueue(Entry(bound, space, idxs))(entryOrd)
    while (heap.nonEmpty && heap.head.bound < threshold) {
      if (stats.spacesProcessed >= DSSearch.MaxSpaces) {
        stats.truncated = true
        Console.err.println(s"[DSSearch] MaxSpaces=${DSSearch.MaxSpaces} hit — result may be approximate")
        heap.clear()
      } else {
        val e = heap.dequeue()
        stats.spacesProcessed += 1
        if (e.space.width > 0 && e.space.height > 0) {
          val grid = Grid(e.space, DSSearch.GridSide, DSSearch.GridSide)
          val here = lr.overlapping(e.space, e.idxs)
          stats.localDiscretizations += 1
          val dirty = harvest(grid, Discretize.local(lr, here, grid, spec))
          val drop = 2 * grid.cw < dX && 2 * grid.ch < dY
          if (!drop && dirty.nonEmpty) {
            SplitHeuristic.split(dirty, e.space).foreach { c =>
              if (c.bound < threshold)
                heap.enqueue(Entry(c.bound, c.box, here))
            }
          }
        }
      }
    }
  }

  /** Evaluate every cell of the grid: clean cells refine the incumbent, dirty
    * cells surviving the bound check are returned for splitting.
    */
  private def harvest(grid: Grid, cells: CellStats): IndexedSeq[SplitHeuristic.Part] = {
    val dirty = IndexedSeq.newBuilder[SplitHeuristic.Part]
    var j = 0
    while (j < grid.nrow) {
      var i = 0
      while (i < grid.ncol) {
        stats.cellsEvaluated += 1
        val slot = grid.flat(i, j)
        val box = grid.cellBox(i, j)
        if (!cells.isDirty(slot)) {
          cells.exact(slot, vec)
          offer(objective.score(vec), box.centerX, box.centerY)
        } else {
          cells.bounds(slot, lo, hi)
          val b = objective.bound(lo, hi)
          if (b < threshold)
            dirty += SplitHeuristic.Part(box, b)
        }
        i += 1
      }
      j += 1
    }
    dirty.result()
  }
}

object DSSearch {

  /** A space to search: `idxs` are rectangles of the query's snapshot, a
    * superset of those overlapping it.
    */
  private final case class Entry(bound: Double, space: Box, idxs: Array[Int])

  /** The heap pops the least bound first. */
  private val entryOrd: Ordering[Entry] = Ordering.by((e: Entry) => -e.bound)

  /** Side of the grid laid over every popped space (paper §7.2 finds 30×30
    * best).
    */
  val GridSide = 30

  /** Runaway safeguard: a search stops, marked truncated, after this many
    * spaces.
    */
  val MaxSpaces = 2_000_000

  /** Answer to an ASRS/MaxRS query: the candidate point (bottom-left corner
    * of the returned region) and its score, plus search statistics.
    */
  final case class Result(x: Double, y: Double, score: Double, stats: SearchStats) {
    def region(a: Double, b: Double): Box = Box(x, y, x + a, y + b)
  }

  /** End-to-end ASRS solve (Algorithm 1): one collect of the query's
    * rectangles, then the search of the whole space from the empty region.
    */
  def solveASRS(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
                target: Array[Double]): Result =
    solve(Rects.local(objects, a, b, spec), MinDistance(spec, target))

  /** MaxRS solve (§7.5) as the ASRS query of [[Rects.maxRS]] with target n:
    * the least distance d is n − (the largest count).
    */
  def solveMaxRS(objects: DataFrame, a: Double, b: Double): Result = {
    val lr = Rects.maxRS(objects, a, b)
    val r = solve(lr, MinDistance(Rects.CountSpec, Array(lr.n.toDouble)))
    r.copy(score = lr.n - r.score)
  }

  /** With no rectangles there is no space to search: the answer is the
    * empty region.
    */
  private def solve(lr: LocalRects, objective: MinDistance): Result = {
    val ds = new DSSearch(lr, objective, delta = 0.0)
    if (lr.n > 0) ds.run(lr.edges.space, Array.range(0, lr.n), 0.0)
    Result(ds.bestX, ds.bestY, ds.bestScore, ds.stats)
  }
}
