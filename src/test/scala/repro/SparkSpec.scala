package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.{ListenerBusDrain, LiveBroadcasts}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.{CacheEntries, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** The persisted RDDs and the number of cache-manager entries: a call
    * that leaves no cache behind leaves both as it found them.
    */
  def cacheState: (Set[Int], Int) =
    (spark.sparkContext.getPersistentRDDs.keySet.toSet, CacheEntries(spark))

  /** The broadcast variables the driver holds, Spark's own task binaries
    * left out. `destroy` removes a broadcast's blocks asynchronously, so a
    * test waits for this to drop what a call made.
    */
  def broadcasts: Set[Long] = LiveBroadcasts(spark.sparkContext)

  /** The Spark jobs `body` starts. */
  def jobsOf[A](body: => A): (A, Int) = counted(body)(count => new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = count.incrementAndGet()
  })

  /** The Spark stages `body` runs: a stage a job skips, because an earlier
    * job wrote its shuffle output, is not counted.
    */
  def stagesOf[A](body: => A): (A, Int) = counted(body)(count => new SparkListener {
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = count.incrementAndGet()
  })

  /** The events of `body` that the listener `counting` counts. */
  private def counted[A](body: => A)(counting: AtomicInteger => SparkListener): (A, Int) = {
    val sc       = spark.sparkContext
    val count    = new AtomicInteger
    val listener = counting(count)
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try {
      val a = body
      ListenerBusDrain(sc)
      (a, count.get)
    } finally sc.removeSparkListener(listener)
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
